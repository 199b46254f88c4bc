package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck measures every workload twice, the two sets interleaved
// (A B C D A B C D) so that a slow spell of the host cannot fall on both runs
// of one workload, each run a process of its own as the driver's are. It
// prints both values of every end-to-end metric, their relative difference
// and the bound, and fails if a difference exceeds its bound: a benchmark
// whose two runs of the same code disagree by more than the bound cannot
// tell a regression of that size from noise.
func runSelfcheck(seed int64, seconds float64, contractPath string) error {
	data, err := os.ReadFile(contractPath)
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("%s: %w", contractPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs [2]map[string]*report
	for pass := range runs {
		runs[pass] = make(map[string]*report)
		for _, w := range c.Workloads {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", w.Name, pass+1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			rep := &report{}
			if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil {
				return fmt.Errorf("%s, run %d: result line: %w", w.Name, pass+1, err)
			}
			runs[pass][w.Name] = rep
		}
	}
	fmt.Printf("%-14s %-22s %-5s %12s %12s %8s %7s\n", "workload", "metric", "unit", "run 1", "run 2", "diff", "bound")
	var over []string
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := runs[0][w.Name].Metrics[m.Name].Value, runs[1][w.Name].Metrics[m.Name].Value
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			mark := ""
			if diff > m.Bound {
				mark = "  OVER"
				over = append(over, w.Name+"/"+m.Name)
			}
			fmt.Printf("%-14s %-22s %-5s %12.4f %12.4f %8.4f %7.4f%s\n", w.Name, m.Name, m.Unit, a, b, diff, m.Bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two runs of the same code differ by more than the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
