package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// aaRunsPerSide is how many runs each side of the A/A check makes.
const aaRunsPerSide = 3

// runAA is the benchmark's self-check: both sides are this same binary, run
// alternately (A B A B A B) as child processes, each with a seed of its
// own, the way the driver runs it. It passes when, for every workload and
// gated metric, the two sides' medians differ by less than the metric's
// bound: medians are what the driver gates on. How far the worst single run
// lies from the pooled median is printed beside it; on a shared host a single
// run leaves the bound every few dozen runs (a spell of slow disk or stolen
// CPU), which is why nothing is decided on single runs. The timing metrics
// that are not gated are listed the same way, without a verdict: the table is
// the record of how well each repeats on this host. The markdown it prints is
// committed as AA.md.
func runAA(man manifest, seed int64, seconds int, scratchRoot string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	st := newStamp("all", seed, scratchRoot)
	fmt.Fprintf(stdout, "# A/A self-check\n\nBoth sides are the same binary; runs alternate A B A B A B, %d s measured each, seeds %d….\n\n",
		seconds, seed)
	fmt.Fprintf(stdout, "Host: nproc %d, GOMAXPROCS %d, %s, commit %s, WAL on %s.\n\n",
		st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit, st.WALFilesystem)
	fmt.Fprintln(stdout, "| workload | metric | A runs | B runs | A median | B median | diff | worst run vs pooled | bound | ok |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|---|")

	failed := false
	for _, sp := range specs {
		var runs []metrics // gated and ungated metrics of each run, A and B alternating
		for i := 0; i < 2*aaRunsPerSide; i++ {
			cmd := exec.Command(self,
				"-workload", sp.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-scratch", scratchRoot)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", sp.name, i, err)
				return 1
			}
			// The last three lines are the ungated metrics, the stamp and the result.
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			var extra struct {
				Ungated metrics `json:"ungated"`
			}
			if len(lines) < 3 || json.Unmarshal(lines[len(lines)-1], &res) != nil || !res.Correct ||
				json.Unmarshal(lines[len(lines)-3], &extra) != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: bad result lines\n", sp.name, i)
				return 1
			}
			for name, m := range extra.Ungated {
				res.Metrics[name] = m
			}
			runs = append(runs, res.Metrics)
		}
		bounds := map[string]float64{}
		for _, d := range man.EndToEnd {
			bounds[d.Name] = d.Bound
		}
		for _, name := range sortedNames(runs[0]) {
			var sides [2][]float64
			var all []float64
			for i, m := range runs {
				sides[i%2] = append(sides[i%2], m[name].Value)
				all = append(all, m[name].Value)
			}
			ma, mb, pooled := median(sides[0]), median(sides[1]), median(all)
			diff := math.Abs(mb-ma) / ma
			worst := 0.0
			for _, v := range all {
				worst = math.Max(worst, math.Abs(v-pooled)/pooled)
			}
			boundCol, okCol := "not gated", "–"
			if bound, gated := bounds[name]; gated {
				ok := diff < bound
				failed = failed || !ok
				boundCol, okCol = fmt.Sprintf("%.0f%%", 100*bound), fmt.Sprint(ok)
			}
			fmt.Fprintf(stdout, "| %s | %s (%s) | %s | %s | %.5g | %.5g | %.2f%% | %.2f%% | %s | %s |\n",
				sp.name, name, runs[0][name].Unit, joinValues(sides[0]), joinValues(sides[1]), ma, mb, 100*diff, 100*worst, boundCol, okCol)
		}
	}
	if failed {
		fmt.Fprintln(stdout, "\nFAIL: the median of at least one gated metric moved by more than its bound between two sets of runs of the same code.")
		return 1
	}
	fmt.Fprintln(stdout, "\nPASS: the median of every gated metric repeats within its bound.")
	return 0
}

func joinValues(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.5g", x)
	}
	return b.String()
}
