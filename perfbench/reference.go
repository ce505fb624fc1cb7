package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"warpsched/internal/exp"
)

// refPath is the frozen reference, relative to the checkout root: for
// every simulation either sweep submits, its variant hash mapped to
// cycles and counter snapshot. It is generated once with -gen-ref; a run
// whose result differs in any count is a failed operation.
const refPath = "perfbench/reference.json"

// buildDir holds everything building and running the benchmark leaves
// behind, relative to the checkout root.
const buildDir = ".bench_build"

// reference is the decoded reference file. Runs maps a variant to
// [cycles, counter values...] with the values in Names order; a null
// value marks a counter the run did not report.
type reference struct {
	Names []string            `json:"names"`
	Runs  map[string][]*int64 `json:"runs"`
}

func loadReference(root string) (*reference, error) {
	data, err := os.ReadFile(filepath.Join(root, refPath))
	if err != nil {
		return nil, fmt.Errorf("load reference: %w", err)
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse reference: %w", err)
	}
	return &r, nil
}

// check reports whether a run matches its reference entry exactly.
func (r *reference) check(run simRun) error {
	if run.err != "" {
		return fmt.Errorf("variant %s: %s", run.variant, run.err)
	}
	want, ok := r.Runs[run.variant]
	if !ok {
		return fmt.Errorf("variant %s: not in the reference", run.variant)
	}
	got := r.encode(run.cycles, run.counters)
	if got == nil {
		return fmt.Errorf("variant %s: counter outside the reference's names", run.variant)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("variant %s: %s", run.variant, r.firstDiff(got, want))
	}
	return nil
}

// encode renders cycles and counters in the reference's row form, or
// nil when a counter has no column.
func (r *reference) encode(cycles int64, counters map[string]int64) []*int64 {
	row := make([]*int64, 1+len(r.Names))
	row[0] = &cycles
	seen := 0
	for i, name := range r.Names {
		if v, ok := counters[name]; ok {
			v := v
			row[1+i] = &v
			seen++
		}
	}
	if seen != len(counters) {
		return nil
	}
	return row
}

func (r *reference) firstDiff(got, want []*int64) string {
	show := func(p *int64) string {
		if p == nil {
			return "absent"
		}
		return fmt.Sprint(*p)
	}
	for i := range want {
		if show(got[i]) != show(want[i]) {
			name := "cycles"
			if i > 0 {
				name = r.Names[i-1]
			}
			return fmt.Sprintf("%s = %s, reference %s", name, show(got[i]), show(want[i]))
		}
	}
	return "rows differ in length"
}

// generateReference runs one pass of each sweep and writes the reference
// file, one variant per line. Duplicate submissions of a variant must
// agree, or generation fails.
func generateReference(root string) error {
	path := filepath.Join(root, refPath)
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "gen-ref-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{work: work, spans: newSpanLog(), speed: &speedProbe{}}
	logf("reference: sync sweep")
	sp, err := syncPass(e)
	if err != nil {
		return err
	}
	runs := sp.runs
	logf("reference: sync-free sweep")
	for _, s := range syncFreeSweepSpecs() {
		runs = append(runs, executeOne(s, exp.VariantHash(s)))
	}

	names := map[string]bool{}
	byVariant := map[string]simRun{}
	for _, r := range runs {
		if r.err != "" {
			return fmt.Errorf("reference: variant %s failed: %s", r.variant, r.err)
		}
		if prev, ok := byVariant[r.variant]; ok {
			if prev.cycles != r.cycles || !reflect.DeepEqual(prev.counters, r.counters) {
				return fmt.Errorf("reference: variant %s disagrees with itself", r.variant)
			}
		}
		byVariant[r.variant] = r
		for n := range r.counters {
			names[n] = true
		}
	}
	ref := &reference{Runs: map[string][]*int64{}}
	for n := range names {
		ref.Names = append(ref.Names, n)
	}
	sort.Strings(ref.Names)
	variants := make([]string, 0, len(byVariant))
	for v, r := range byVariant {
		ref.Runs[v] = ref.encode(r.cycles, r.counters)
		variants = append(variants, v)
	}
	sort.Strings(variants)

	var buf bytes.Buffer
	head, err := json.Marshal(ref.Names)
	if err != nil {
		return err
	}
	fmt.Fprintf(&buf, "{\"names\": %s,\n\"runs\": {\n", head)
	for i, v := range variants {
		row, err := json.Marshal(ref.Runs[v])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(variants)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%q: %s%s\n", v, row, sep)
	}
	buf.WriteString("}}\n")
	logf("reference: %d variants from %d simulations", len(variants), len(runs))
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
