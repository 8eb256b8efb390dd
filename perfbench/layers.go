package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// pprofLayers runs `go tool pprof -traces` with args and attributes each
// sample's value to a layer (see attribute).
func pprofLayers(args ...string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return attribute(string(out))
}

// attribute parses `go tool pprof -traces` text. Each sample is a block
// after a "-----------+---" rule: an optional "label: value" line, then
// the sample value and the innermost frame on one line, then one caller
// frame per line. The value goes to the layer of the innermost frame in
// a layer package; frames of other packages (runtime, actor, spec, obs,
// the benchmark's own closures …) are passed over, so they count
// towards the layer that called them, and a sample with no layer frame
// at all counts as gc.
func attribute(text string) (map[string]float64, error) {
	out := map[string]float64{}
	inBlock, haveValue, attributed := false, false, false
	var value float64
	flush := func() {
		if haveValue && !attributed {
			out["gc"] += value
		}
		haveValue, attributed = false, false
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		frame := line
		if !haveValue {
			if strings.HasSuffix(fields[0], ":") {
				continue // a sample label such as "bytes: 16B"
			}
			v, err := parseValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value, haveValue = v, true
			frame = strings.Join(fields[1:], " ")
		}
		if attributed {
			continue
		}
		if l := layerOf(strings.TrimSpace(frame)); l != "" {
			out[l] += value
			attributed = true
		}
	}
	flush()
	return out, nil
}

// layerOf maps a pprof function name to its layer ("" for a frame outside
// the layer packages).
func layerOf(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	// No package path in this module contains a dot, so the first dot
	// ends it.
	pkg, _, ok := strings.Cut(fn[len(prefix):], ".")
	if !ok {
		return ""
	}
	if pkg == "apps/rkv" {
		pkg = "rkv"
	}
	for _, l := range layers {
		if l == pkg && l != "gc" {
			return l
		}
	}
	return ""
}

// parseValue reads a pprof sample value: a plain or k/M/G-scaled count,
// or a duration (ns, us, µs, ms, s, m, h), returned in seconds.
func parseValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"hrs", 3600}, {"h", 3600},
		{"mins", 60}, {"m", 60}, {"s", 1}, {"k", 1e3}, {"M", 1e6}, {"G", 1e9}}
	scale := 1.0
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			s, scale = strings.TrimSuffix(s, u.suffix), u.scale
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v * scale, err
}

// budgetNames are the virtual-time budget metrics, in µs summed over the
// traced run (divided per request by the caller).
var budgetNames = []string{
	"netsim.frame_us_per_req", "nicsim.admit_wait_us_per_req", "pcie.dma_us_per_req",
	"core.nic_exec_us_per_req", "core.nic_wait_us_per_req",
	"core.host_exec_us_per_req", "core.host_wait_us_per_req",
}

// budget sums span durations and waits per layer from a Chrome trace as
// obs.Tracer.WriteChromeTrace writes it: one event per line, thread-name
// metadata before the spans. Lanes are recognised by their track names.
func budget(r io.Reader) (map[string]float64, error) {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Dur  float64 `json:"dur"`
		Args struct {
			Name string  `json:"name"`
			Wait float64 `json:"wait_us"`
		} `json:"args"`
	}
	lanes := map[[2]int]string{}
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSuffix(strings.TrimSpace(sc.Text()), ",")
		if !strings.HasPrefix(line, "{\"name\"") {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("trace line %q: %w", line, err)
		}
		lane := [2]int{ev.Pid, ev.Tid}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			lanes[lane] = ev.Args.Name
			continue
		case ev.Ph != "X":
			continue
		}
		switch name := lanes[lane]; {
		case name == "link tx" || name == "link rx":
			out["netsim.frame_us_per_req"] += ev.Dur
		case name == "traffic mgr":
			out["nicsim.admit_wait_us_per_req"] += ev.Args.Wait
		case name == "dma":
			out["pcie.dma_us_per_req"] += ev.Dur
		case strings.HasPrefix(name, "nic core "):
			out["core.nic_exec_us_per_req"] += ev.Dur
			out["core.nic_wait_us_per_req"] += ev.Args.Wait
		case strings.HasPrefix(name, "host core "):
			out["core.host_exec_us_per_req"] += ev.Dur
			out["core.host_wait_us_per_req"] += ev.Args.Wait
		}
	}
	return out, sc.Err()
}
