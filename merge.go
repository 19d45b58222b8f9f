package patree

import "github.com/patree/patree/internal/core"

// This file is the single home of the scatter-gather result merge used
// by every multi-shard read path — scattered scans and syncs (fanAgg in
// async.go). The k-way selection itself is core.MergeRuns, shared with
// the LSM baseline's merges.

// mergeScan merge-sorts per-shard scan results (each already ascending,
// keyspaces disjoint) into one ascending run, honoring the global limit
// (<= 0 = unlimited). The first shard error wins and discards the data.
// One run is its own merge.
func mergeScan(rs []core.Result, limit int) core.Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := mergeFirstErr(rs)
	if out.Err != nil {
		return out
	}
	total := 0
	for _, r := range rs {
		total += len(r.Pairs)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	if total == 0 {
		return out
	}
	pairs := make([]KV, 0, total)
	core.MergeRuns(len(rs),
		func(i int) int { return len(rs[i].Pairs) },
		func(i, j int) uint64 { return rs[i].Pairs[j].Key },
		false,
		func(i, j int) bool {
			pairs = append(pairs, rs[i].Pairs[j])
			return len(pairs) < total
		})
	out.Pairs = pairs
	return out
}

// mergeFirstErr folds per-shard results into one carrying the first
// (lowest shard index) error and the widest admitted→completed window,
// so the merged latency covers the whole scattered operation.
func mergeFirstErr(rs []core.Result) core.Result {
	var out core.Result
	for i, r := range rs {
		if r.Err != nil && out.Err == nil {
			out.Err = r.Err
		}
		if i == 0 || r.Admitted < out.Admitted {
			out.Admitted = r.Admitted
		}
		if r.Completed > out.Completed {
			out.Completed = r.Completed
		}
	}
	return out
}
