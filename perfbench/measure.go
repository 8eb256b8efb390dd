package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// smallRunRequests sizes the traced runs and the allocation-profiled
// run: recording every span or every allocation costs microseconds each,
// so these runs are scaled down to about this many requests. Every
// figure they give is per request.
const smallRunRequests = 10000

// Set-up alone is timed at least minSetups times, and then again while
// setupBudget lasts, up to maxSetups times; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// layers are the simulator packages per-layer figures are attributed to
// (rkv is internal/apps/rkv); gc takes profile samples with no frame in
// any of them.
var layers = []string{"sim", "netsim", "nicsim", "pcie", "msgring", "sched", "hostsim",
	"core", "dmo", "workload", "rkv", "shard", "mesh", "stats", "gc"}

// rep is one timed repetition.
type rep struct {
	run
	mallocs, allocBytes uint64
	peakHeap            uint64
}

func measure(w workloadDef, seed uint64, seconds float64, trace bool, work string) (*result, error) {
	res := &result{correct: true, metrics: map[string]metric{}}
	invStart := time.Now()

	chk, speedup, err := gate(w, seed, res)
	if err != nil {
		return nil, err
	}

	// Set-up alone, timed several times.
	var setups []float64
	for t0 := time.Now(); len(setups) < minSetups || len(setups) < maxSetups && time.Since(t0) < setupBudget; {
		runtime.GC()
		r, err := w.run(opts{seed: seed, setupOnly: true})
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.cpu.Seconds())
	}

	// Timed repetitions, untraced, for at least the given host time.
	var reps []rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		m := &meter{}
		r, err := w.run(opts{seed: seed, meter: m})
		if err != nil {
			return nil, err
		}
		if r.completed == 0 {
			return nil, fmt.Errorf("%s: no request completed", w.name)
		}
		reps = append(reps, rep{run: r, mallocs: m.mallocs, allocBytes: m.bytes, peakHeap: m.peak})
	}
	base := reps[0].run
	ref := fingerprint(base)
	for i, r := range reps[1:] {
		if fingerprint(r.run) != ref {
			res.fail("%s: rep %d differs from rep 0 in a deterministic field", w.name, i+1)
		}
	}
	if !sameRun(chk, base) {
		res.fail("%s: the checked run differs from the timed one", w.name)
	}
	lat := base.lat

	// End-to-end metrics: medians over the repetitions.
	n := float64(base.completed)
	med := func(f func(rep) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	// Host CPU per request: the median over every repetition and, on
	// pooled workloads, every cluster in it, so a burst of interference
	// moves a few samples rather than the figure.
	var perReq []float64
	for _, r := range reps {
		perReq = append(perReq, r.cpuPerReq...)
	}
	hostNs := median(perReq)
	mallocs := med(func(r rep) float64 { return float64(r.mallocs) })
	res.set("host_ns_per_req", hostNs, "ns")
	res.set("setup_s", median(setups), "s")
	res.set("allocs_per_req", mallocs/n, "count")
	res.set("alloc_bytes_per_req", med(func(r rep) float64 { return float64(r.allocBytes) })/n, "B")
	res.set("peak_heap_mib", med(func(r rep) float64 { return float64(r.peakHeap) })/(1<<20), "MiB")
	res.set("sim_kops", float64(base.answered)/base.window.Seconds()/1e3, "kop/s")
	res.set("sim_p50_us", lat.Percentile(50), "us")
	res.set("sim_p99_us", lat.Percentile(99), "us")
	res.set("sim_p999_us", lat.Percentile(99.9), "us")
	res.set("failed_share", failedShare(base.offered, base.answered), "share")
	for _, r := range reps {
		res.attempted += r.offered
		res.failed += r.failed
	}
	perRep := make([]string, len(reps))
	for i, r := range reps {
		perRep[i] = fmt.Sprintf("%.0f/%.0f", float64(r.host.wall)/n, float64(r.host.cpu)/n)
	}
	res.notef("host ns/req by rep (wall/cpu): %s", strings.Join(perRep, " "))
	samples := lat.Count()
	if beyond := samplesBeyond(samples, 99.9); beyond < 30 {
		res.fail("%s: only %d latency samples beyond p99.9 (want >= 30)", w.name, beyond)
	}
	res.notef("%s seed=%d reps=%d requests/rep=%d latency samples=%d (p99.9 has %d beyond; highest percentile with >=10 beyond: p%g) digest=%s",
		w.name, seed, len(reps), base.completed, samples, samplesBeyond(samples, 99.9),
		highestPercentile(samples, 10), digest(lat))
	if !trace {
		return res, nil
	}
	// The per-layer set replaces the end-to-end one in the report.
	layerStart := time.Now()
	res.metrics = map[string]metric{}
	if err := perLayer(w, seed, work, base, hostNs, mallocs/n, speedup, res); err != nil {
		return nil, err
	}
	res.notef("phases: gate+timed %.1fs, per-layer %.1fs", layerStart.Sub(invStart).Seconds(), time.Since(layerStart).Seconds())
	return res, nil
}

// perLayer sets the per-layer metrics: work counts from the timed run
// base, then a CPU-profiled run, an allocation-profiled run and a traced
// pair, all separate from the timed runs.
func perLayer(w workloadDef, seed uint64, work string, base run, hostNs, allocsPerReq, speedup float64, res *result) error {
	n := float64(base.completed)
	c := base.count
	res.set("sim.events_per_req", float64(base.events)/n, "count")
	res.set("sim.events_per_s", float64(base.events)/n/hostNs*1e9, "1/s")
	res.set("sim.allocs_per_event", allocsPerReq*n/float64(base.events), "count")
	res.set("sim.rounds", c["sim.rounds"], "count")
	res.set("sim.handoffs_per_req", c["sim.handoffs"]/n, "count")
	res.set("sim.worker_speedup", speedup, "x")
	res.set("netsim.packets_per_req", c["netsim.delivered"]/n, "count")
	for _, k := range []string{"netsim.drops", "netsim.lost", "sched.completed", "sched.forwarded",
		"sched.downgrades", "sched.upgrades", "hostsim.completed", "workload.retried", "workload.rejected"} {
		res.set(k, c[k], "count")
	}
	res.set("sched.fcfs_util", c["sched.fcfs_util"], "share")
	res.set("sched.drr_util", c["sched.drr_util"], "share")
	res.set("hostsim.cores_used", c["hostsim.cores_used"], "cores")

	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	small := max(1, int(base.completed/smallRunRequests))
	if err := profileLayers(w, seed, small, work, res); err != nil {
		return err
	}

	// Virtual-time budget from an exported Chrome trace. The traced run
	// is shorter than a timed one, so its host cost is compared with an
	// untraced run of the same length for the tracing overhead.
	// The untraced run also records host-time spans around the
	// benchmark's calls into the simulator.
	spans := newSpanLog()
	plain, err := w.run(opts{seed: seed, shrink: small, spans: spans})
	if err != nil {
		return err
	}
	if err := spans.write(filepath.Join(work, "host-spans.json")); err != nil {
		return err
	}
	res.notef("host spans (1/%d run): %s", small, spans.totals())
	tr := obs.NewTracer()
	traced, err := w.run(opts{seed: seed, shrink: small, tracer: tr})
	if err != nil {
		return err
	}
	if !sameRun(traced, plain) {
		res.fail("%s: attaching the tracer changed the run", w.name)
	}
	b, err := exportBudget(tr)
	if err != nil {
		return err
	}
	tn := float64(traced.completed)
	for _, k := range budgetNames {
		res.set(k, b[k]/tn, "us")
	}
	res.set("obs.tracing_overhead", float64(traced.host.cpu)/float64(plain.host.cpu), "x")
	return nil
}

// gate is the correctness gate: one untimed run with the invariant
// checkers attached (mesh-pdes: at 2 and at 1 window workers, which must
// leave byte-equal fingerprints, and its topology checked against
// mesh.Run). It also finishes lazy set-up — first-use costs in the
// runtime and the program — before timing. It returns the checked run
// and, for mesh-pdes, the wall-clock speedup of 2 window workers over 1.
func gate(w workloadDef, seed uint64, res *result) (run, float64, error) {
	chk, err := w.run(opts{seed: seed, check: true, shrink: w.gateShrink})
	if err != nil {
		return run{}, 0, err
	}
	if chk.violations != 0 {
		res.fail("%s: %d invariant ledgers report violations", w.name, chk.violations)
	}
	if w.name != "mesh-pdes" {
		return chk, 0, nil
	}
	one, err := w.run(opts{seed: seed, check: true, workers: 1})
	if err != nil {
		return run{}, 0, err
	}
	if one.violations != 0 {
		res.fail("mesh-pdes: %d invariant ledgers report violations at 1 worker", one.violations)
	}
	if one.fingerprint == "" || one.fingerprint != chk.fingerprint {
		res.fail("mesh-pdes: invariant fingerprints differ between 1 and 2 window workers")
	}
	d, err := meshMatchesLibrary(seed)
	if err != nil {
		return run{}, 0, err
	}
	if d != "" {
		res.fail("mesh-pdes: the topology differs from mesh.Run's: %s", d)
	}
	return chk, float64(one.host.wall) / float64(chk.host.wall), nil
}

// exportBudget streams the tracer's Chrome trace export into budget, so
// the exported text is never held in memory whole.
func exportBudget(tr *obs.Tracer) (map[string]float64, error) {
	pr, pw := io.Pipe()
	werr := make(chan error, 1)
	go func() {
		err := tr.WriteChromeTrace(pw)
		pw.CloseWithError(err)
		werr <- err
	}()
	b, err := budget(pr)
	pr.CloseWithError(errors.New("budget stopped reading")) // unblocks the writer on a parse error
	if e := <-werr; err == nil && e != nil {
		err = fmt.Errorf("export trace: %w", e)
	}
	return b, err
}

// profileLayers runs the workload twice more: at full size under the CPU
// profiler, and scaled down by small recording every allocation. It
// attributes both profiles to layers by their innermost layer frame.
func profileLayers(w workloadDef, seed uint64, small int, work string, res *result) error {
	cpuFile := filepath.Join(work, "cpu.prof")
	f, err := os.Create(cpuFile)
	if err != nil {
		return err
	}
	m := &meter{cpu: f}
	r, err := w.run(opts{seed: seed, meter: m})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = m.err
	}
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	cpu, err := pprofLayers(cpuFile)
	if err != nil {
		return err
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = cpu[l] / total
		}
		res.set(l+".cpu_share", share, "share")
	}
	res.notef("cpu profile: %.2fs of samples over %.2fs of run", total, r.host.cpu.Seconds())

	m = &meter{heapDir: work}
	r, err = w.run(opts{seed: seed, shrink: small, meter: m})
	if err == nil {
		err = m.err
	}
	if err != nil {
		return fmt.Errorf("alloc profile: %w", err)
	}
	allocs, err := pprofLayers("-sample_index=alloc_objects", m.heapAfter, "-base", m.heapBefore)
	if err != nil {
		return err
	}
	for _, l := range layers {
		res.set(l+".allocs_per_req", allocs[l]/float64(r.completed), "count")
	}
	return nil
}

// meter measures a run phase: the workload calls start just before its
// timed interval and end just after. The zero meter counts allocations
// and samples the peak heap; cpu and heapDir add a CPU profile or
// before/after heap profiles recording every allocation.
type meter struct {
	cpu     *os.File
	heapDir string

	mallocs, bytes, peak  uint64
	heapBefore, heapAfter string
	memRate               int
	err                   error

	ms   runtime.MemStats
	stop chan struct{}
	wg   sync.WaitGroup
}

func (m *meter) start() {
	if m == nil {
		return
	}
	switch {
	case m.cpu != nil:
		// 1 kHz instead of the default 100 Hz, so a short run still gives
		// thousands of samples. StartCPUProfile warns on stderr that the
		// rate is already set; the warning is harmless.
		runtime.SetCPUProfileRate(1000)
		m.err = pprof.StartCPUProfile(m.cpu)
	case m.heapDir != "":
		m.memRate, runtime.MemProfileRate = runtime.MemProfileRate, 1
		m.heapBefore = filepath.Join(m.heapDir, "heap-before.prof")
		m.err = writeHeap(m.heapBefore)
	}
	runtime.ReadMemStats(&m.ms)
	m.mallocs, m.bytes = m.ms.Mallocs, m.ms.TotalAlloc
	m.stop = make(chan struct{})
	m.wg.Add(1)
	go m.sample()
}

// sample tracks the peak of heap in use (live and unswept objects plus
// free space in in-use spans) every 5 ms until stop.
func (m *meter) sample() {
	defer m.wg.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > m.peak {
			m.peak = v
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *meter) end() {
	if m == nil {
		return
	}
	close(m.stop)
	m.wg.Wait()
	runtime.ReadMemStats(&m.ms)
	m.mallocs, m.bytes = m.ms.Mallocs-m.mallocs, m.ms.TotalAlloc-m.bytes
	if m.ms.HeapInuse > m.peak {
		m.peak = m.ms.HeapInuse
	}
	switch {
	case m.cpu != nil:
		pprof.StopCPUProfile()
	case m.heapDir != "":
		m.heapAfter = filepath.Join(m.heapDir, "heap-after.prof")
		if err := writeHeap(m.heapAfter); m.err == nil {
			m.err = err
		}
		runtime.MemProfileRate = m.memRate
	}
}

// writeHeap writes the allocation profile. The runtime publishes
// allocation records at the end of a GC cycle, up to two cycles late,
// hence the two collections.
func writeHeap(path string) error {
	runtime.GC()
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- deterministic outputs ------------------------------------------

// fingerprint renders every deterministic field of a run: the request
// ledger, the event count, the layer counters and the latency digest.
func fingerprint(r run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d answered=%d completed=%d events=%d failed=%d lat=%s",
		r.offered, r.answered, r.completed, r.events, r.failed, digest(r.lat))
	for _, k := range sortedKeys(r.count) {
		fmt.Fprintf(&b, " %s=%v", k, r.count[k])
	}
	return b.String()
}

// sameRun reports whether run a, possibly scaled down, agrees with run b
// on every deterministic field: on the whole fingerprint, or for runs
// made of independent clusters on each of a's clusters.
func sameRun(a, b run) bool {
	if a.parts == nil || len(a.parts) == len(b.parts) {
		return fingerprint(a) == fingerprint(b)
	}
	if len(a.parts) > len(b.parts) {
		return false
	}
	for i, p := range a.parts {
		if p != b.parts[i] {
			return false
		}
	}
	return true
}

// digest hashes a latency sample through its count, mean and every
// permille quantile (stats.Sample does not expose its values).
func digest(s *stats.Sample) string {
	if s == nil {
		return "-"
	}
	h := fnv.New64a()
	put := func(v float64) {
		var b [8]byte
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(float64(s.Count()))
	for q := 0; q <= 1000; q++ {
		put(s.Quantile(float64(q) / 1000))
	}
	put(s.Mean()) // after Quantile has sorted the values: a fixed summation order
	return fmt.Sprintf("%016x", h.Sum64())
}

// failedShare is the share of offered requests not answered within the
// measured window: (Client.Offered() − Received) ÷ Offered(), with both
// read when the window closes (see the accounting contract on
// workload.Client).
func failedShare(offered, answered uint64) float64 {
	if offered == 0 {
		return 0
	}
	return float64(offered-answered) / float64(offered)
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile (stats.Sample's rank rule).
func samplesBeyond(n uint64, p float64) uint64 {
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

// reportedPercentiles are the tail percentiles the benchmark can state.
var reportedPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// highestPercentile is the highest reported percentile that has at least
// atLeast samples beyond it (0 when even the median has fewer).
func highestPercentile(n, atLeast uint64) float64 {
	for _, p := range reportedPercentiles {
		if samplesBeyond(n, p) >= atLeast {
			return p
		}
	}
	return 0
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
