package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ClassifierMaker builds a fresh classifier per fold.
type ClassifierMaker func(seed uint64) ml.Classifier

// DefaultClassifier is the harness default: correlation-matching nearest
// centroid, which tracks the paper's deep model's *relative* accuracies at
// a tiny fraction of the runtime (see BenchmarkAblationClassifiers).
func DefaultClassifier(seed uint64) ml.Classifier {
	return &ml.NearestCentroid{Prep: ml.DefaultPreprocessor}
}

// ClassifierByName maps a command-line name to a ClassifierMaker whose
// gradient-trained classifiers score on the given inference tier. The
// empty string and "centroid" return a nil maker, i.e. the built-in
// default. Gradient-trained classifiers ("logreg", "cnn") exercise ml.Fit
// and so populate the epoch-loss metrics and ml.fit spans in run
// manifests.
func ClassifierByName(name string, tier ml.InferTier) (ClassifierMaker, error) {
	switch name {
	case "", "centroid", "nearest-centroid":
		return nil, nil
	case "knn":
		return func(uint64) ml.Classifier {
			return &ml.KNN{K: 5, Prep: ml.DefaultPreprocessor}
		}, nil
	case "logreg":
		return func(seed uint64) ml.Classifier {
			return &ml.LogReg{Prep: ml.DefaultPreprocessor, Seed: seed, Tier: tier}
		}, nil
	case "cnn", "cnn-lstm":
		return func(seed uint64) ml.Classifier {
			return &ml.CNNLSTM{Prep: ml.DefaultPreprocessor, Seed: seed, Tier: tier}
		}, nil
	}
	return nil, fmt.Errorf("core: unknown classifier %q (want centroid, knn, logreg, or cnn)", name)
}

// Result summarizes one experiment's cross-validated accuracy.
type Result struct {
	Scenario string
	// Top1 and Top5 are percent accuracies (mean ± std over folds).
	Top1, Top5 stats.Summary
	// Per-fold top-1 fractions, for significance testing across
	// experiments (§4.2's two-sample t-test).
	FoldTop1 []float64

	// Open-world metrics (zero unless the dataset has a non-sensitive
	// class): accuracy on sensitive traces, on non-sensitive traces, and
	// combined.
	Sensitive    stats.Summary
	NonSensitive stats.Summary
	Combined     stats.Summary
	OpenWorld    bool

	// Confusion aggregates test predictions across all folds (every
	// trace appears exactly once as a test sample in k-fold CV).
	Confusion *stats.ConfusionMatrix
}

func (r Result) String() string {
	if r.OpenWorld {
		return fmt.Sprintf("%s: closed %s | open sens %s non-sens %s combined %s",
			r.Scenario, r.Top1, r.Sensitive, r.NonSensitive, r.Combined)
	}
	return fmt.Sprintf("%s: top1 %s top5 %s", r.Scenario, r.Top1, r.Top5)
}

// Evaluate runs k-fold cross-validation of the classifier on the dataset,
// reporting top-1/top-5 and (for open-world datasets) per-category
// accuracy, following §4.1's methodology. With a nil maker, closed-world
// datasets use DefaultClassifier and open-world ones its threshold-reject
// variant (ml.OpenWorldCentroid).
func Evaluate(st *trace.Store, sc Scale, mk ClassifierMaker, name string) (Result, error) {
	res, _, err := evaluateInfo(nil, st, sc, mk, name)
	return res, err
}

// evaluateInfo is the instrumented evaluation path. The "evaluate" span
// carries the fold count and total slot-held compute time; each fold
// records a child "fold" span. The slot-held time is also returned so
// cell runners can build manifest rows without re-deriving them from
// spans.
func evaluateInfo(parent *obs.Span, st *trace.Store, sc Scale, mk ClassifierMaker, name string) (Result, int64, error) {
	openWorld := st.NumClasses() == sc.Sites+1
	if mk == nil {
		if openWorld {
			ns := sc.NonSensitiveLabel()
			mk = func(uint64) ml.Classifier {
				return &ml.OpenWorldCentroid{Prep: ml.DefaultPreprocessor, NSLabel: ns}
			}
		} else {
			mk = DefaultClassifier
		}
	}
	folds, err := st.KFold(sc.Folds, sc.Seed)
	if err != nil {
		return Result{}, 0, err
	}
	sp := obs.StartSpan(parent, "evaluate")
	sp.SetAttr("scenario", name).SetAttr("folds", len(folds))
	defer sp.End()
	var busyNS atomic.Int64
	nsLabel := sc.NonSensitiveLabel()

	// Folds are independent train/test runs, so they execute concurrently;
	// all metric merging below stays in fold order, making the result
	// identical to the serial loop this replaces. Each fold holds a global
	// compute slot while it trains/scores, so evaluations running inside
	// pipelined experiment cells share one process-wide CPU budget with
	// trace collection.
	type foldOut struct {
		scores [][]float64
		labels []int
		err    error
	}
	outs := make([]foldOut, len(folds))
	workers := sc.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(folds) {
		workers = len(folds)
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fi := range ch {
				t0 := acquireSlot()
				fsp := obs.StartSpan(sp, "fold")
				fold := folds[fi]
				clf := mk(sc.Seed + uint64(fi))
				fsp.SetAttr("fold", fi).SetAttr("classifier", clf.Name()).
					SetAttr("test_size", len(fold.Test))
				if err := clf.Fit(st.View(fold.Train)); err != nil {
					outs[fi].err = fmt.Errorf("fold %d: %w", fi, err)
					busyNS.Add(releaseSlot(t0))
					fsp.SetAttr("error", err.Error())
					fsp.End()
					continue
				}
				labels := make([]int, len(fold.Test))
				for ti, i := range fold.Test {
					labels[ti] = st.Label(i)
				}
				var scores [][]float64
				if bs, ok := clf.(ml.BatchScorer); ok {
					vals := make([][]float64, len(fold.Test))
					for ti, i := range fold.Test {
						vals[ti] = st.Values(i)
					}
					scores = bs.ScoresBatch(vals)
				} else {
					scores = make([][]float64, len(fold.Test))
					for ti, i := range fold.Test {
						scores[ti] = clf.Scores(st.Values(i))
					}
				}
				outs[fi] = foldOut{scores: scores, labels: labels}
				busyNS.Add(releaseSlot(t0))
				fsp.End()
				cFolds.Inc()
			}
		}()
	}
	for fi := range folds {
		ch <- fi
	}
	close(ch)
	wg.Wait()
	sp.SetAttr("busy_ns", busyNS.Load())

	confusion := stats.NewConfusionMatrix(st.NumClasses())
	var top1s, top5s, sens, nonsens, combined []float64
	for fi := range folds {
		out := outs[fi]
		if out.err != nil {
			return Result{}, busyNS.Load(), out.err
		}
		scores, labels := out.scores, out.labels
		for ti, s := range scores {
			confusion.Add(labels[ti], stats.ArgMax(s))
		}
		top1s = append(top1s, stats.TopKAccuracy(scores, labels, 1))
		top5s = append(top5s, stats.TopKAccuracy(scores, labels, 5))
		if openWorld {
			var sOK, sN, nOK, nN int
			for i, l := range labels {
				pred := stats.ArgMax(scores[i])
				if l == nsLabel {
					nN++
					if pred == nsLabel {
						nOK++
					}
				} else {
					sN++
					if pred == l {
						sOK++
					}
				}
			}
			if sN > 0 {
				sens = append(sens, float64(sOK)/float64(sN))
			}
			if nN > 0 {
				nonsens = append(nonsens, float64(nOK)/float64(nN))
			}
			combined = append(combined, float64(sOK+nOK)/float64(sN+nN))
		}
	}
	res := Result{
		Scenario:  name,
		Top1:      stats.Summarize(top1s),
		Top5:      stats.Summarize(top5s),
		FoldTop1:  top1s,
		Confusion: confusion,
	}
	if openWorld {
		res.OpenWorld = true
		res.Sensitive = stats.Summarize(sens)
		res.NonSensitive = stats.Summarize(nonsens)
		res.Combined = stats.Summarize(combined)
	}
	return res, busyNS.Load(), nil
}

// RunExperiment collects a dataset for the scenario and evaluates it with
// the runner's classifier — the full offline-training + online-attack
// pipeline of §4.1. Each call records a "cell" span whose
// "collect"/"evaluate" children become one row of the run manifest's
// per-cell summary.
func (r Runner) RunExperiment(scn Scenario, sc Scale) (Result, error) {
	mk, err := ClassifierByName(r.Classifier, r.Tier)
	if err != nil {
		return Result{}, err
	}
	res, _, err := r.experiment(scn, sc, mk)
	return res, err
}

// experiment is RunExperiment with an explicit maker, also returning the
// cell's manifest row: the row is built from the collect/evaluate facts
// directly rather than re-derived from spans, so workers with bounded
// tracers still report every cell.
func (r Runner) experiment(scn Scenario, sc Scale, mk ClassifierMaker) (Result, *obs.CellSummary, error) {
	t0 := time.Now()
	sp := obs.StartSpan(nil, "cell")
	sp.SetAttr("scenario", scn.Name)
	defer sp.End()
	st, info, err := r.collectDatasetInfo(sp, scn, sc)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return Result{}, nil, err
	}
	res, evalBusy, err := evaluateInfo(sp, st, sc, mk, scn.Name)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return Result{}, nil, err
	}
	sp.SetAttr("top1_mean", res.Top1.Mean).SetAttr("top5_mean", res.Top5.Mean)
	return res, &obs.CellSummary{
		Scenario:       scn.Name,
		WallMS:         float64(time.Since(t0).Nanoseconds()) / 1e6,
		CPUMS:          float64(info.busyNS+evalBusy) / 1e6,
		Traces:         st.Len(),
		TrimmedSamples: st.TrimmedSamples(),
		Cached:         info.cached,
		Folds:          sc.Folds,
		Top1Mean:       res.Top1.Mean,
		Top5Mean:       res.Top5.Mean,
	}, nil
}

// CompareSignificance runs the paper's two-sample t-test between two
// experiments' per-fold accuracies (§4.2).
func CompareSignificance(a, b Result) (stats.TTestResult, error) {
	return stats.WelchTTest(a.FoldTop1, b.FoldTop1)
}

// Confusion is one often-confused (true, predicted) site pair.
type ConfusionPair struct {
	True, Predicted string
	Count           int
}

// TopConfusions extracts the k most frequent off-diagonal cells from a
// result's confusion matrix, naming classes with the given labels (the
// non-sensitive open-world class may be labeled beyond the slice; it is
// rendered as "non-sensitive").
func TopConfusions(cm *stats.ConfusionMatrix, labels []string, k int) []ConfusionPair {
	if cm == nil || k <= 0 {
		return nil
	}
	name := func(i int) string {
		if i < len(labels) {
			return labels[i]
		}
		return "non-sensitive"
	}
	var pairs []ConfusionPair
	for t := 0; t < cm.K; t++ {
		for p := 0; p < cm.K; p++ {
			if t != p && cm.At(t, p) > 0 {
				pairs = append(pairs, ConfusionPair{True: name(t), Predicted: name(p), Count: cm.At(t, p)})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Count != pairs[j].Count {
			return pairs[i].Count > pairs[j].Count
		}
		if pairs[i].True != pairs[j].True {
			return pairs[i].True < pairs[j].True
		}
		return pairs[i].Predicted < pairs[j].Predicted
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}

// Stability reruns an experiment across several seeds and summarizes the
// spread of its top-1 accuracy — the tool behind the "seeds change results
// by roughly the printed ±" claim in EXPERIMENTS.md.
func (r Runner) Stability(scn Scenario, sc Scale, seeds []uint64) (stats.Summary, error) {
	if len(seeds) < 2 {
		return stats.Summary{}, fmt.Errorf("core: Stability needs at least 2 seeds")
	}
	var accs []float64
	for _, seed := range seeds {
		s := sc
		s.Seed = seed
		res, err := r.RunExperiment(scn, s)
		if err != nil {
			return stats.Summary{}, err
		}
		accs = append(accs, res.Top1.Mean/100)
	}
	return stats.Summarize(accs), nil
}
