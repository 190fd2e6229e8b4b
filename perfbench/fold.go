package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// modulePrefix marks the frames of the program under test.
const modulePrefix = "repro/internal/"

// sample is one stack of a CPU profile with the CPU time charged to it;
// frames run from the innermost call outward.
type sample struct {
	cpu    time.Duration
	frames []string
}

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then blocks separated by dashed rules, each starting with the sample's
// time followed by the innermost frame, with one caller per line after.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlock = true
			continue
		}
		if !inBlock {
			continue // header: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// A sample line starts with its value in the left column; frame
		// lines are indented past it.
		if !strings.HasPrefix(line, strings.Repeat(" ", 11)) {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q: %w", line, err)
			}
			out = append(out, sample{cpu: d})
			fields = fields[1:]
		}
		if len(out) == 0 || len(fields) == 0 {
			return nil, fmt.Errorf("pprof traces: frame line %q outside a sample", line)
		}
		s := &out[len(out)-1]
		s.frames = append(s.frames, fields[0])
	}
	return out, sc.Err()
}

// layerOf charges a sample to a layer: the module of its innermost
// repro/internal/<module> frame, so runtime helpers (map access, sorting,
// malloc) count toward the module that called them. A stack with no
// module frame is "gc" when it runs a background mark worker and "other"
// otherwise (scheduler, the benchmark's own code).
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if f == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	return "other"
}

// fold sums CPU time per layer.
func fold(samples []sample) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range samples {
		out[layerOf(s.frames)] += s.cpu
	}
	return out
}

// foldProfile runs `go tool pprof -traces` on a CPU profile and folds it.
func foldProfile(path string) (map[string]time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	samples, err := parseTraces(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	return fold(samples), nil
}
