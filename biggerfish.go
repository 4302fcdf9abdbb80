// Package biggerfish is a full-system reproduction of "There's Always a
// Bigger Fish: A Clarifying Analysis of a Machine-Learning-Assisted
// Side-Channel Attack" (Cook, Drean, Behrens, Yan — ISCA 2022).
//
// The paper shows that the well-known cache-occupancy (sweep-counting)
// website-fingerprinting attack is powered primarily by *system interrupts*
// rather than cache contention. This library rebuilds the entire
// experimental apparatus on a deterministic discrete-event simulator:
//
//   - a multi-core machine with DVFS, scheduling, an interrupt subsystem
//     (device IRQs, timer ticks, IPIs, softirqs, IRQ work) and an LLC
//     (internal/kernel, internal/cpu, internal/interrupt, internal/cache);
//   - browsers with their secure timers and page-load engines
//     (internal/browser, internal/clockface, internal/website);
//   - the loop-counting and sweep-counting attackers (internal/attack);
//   - a from-scratch ML stack, including the paper's CNN+LSTM classifier
//     (internal/ml);
//   - eBPF-style kernel instrumentation and gap attribution
//     (internal/ebpf);
//   - the two countermeasures (internal/defense);
//   - and an experiment harness regenerating every table and figure
//     (internal/core).
//
// This package re-exports the harness API so downstream users drive
// everything through one import. See README.md for a quickstart, DESIGN.md
// for the system inventory, and EXPERIMENTS.md for paper-vs-measured
// results.
package biggerfish

import (
	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/website"
)

// Core harness types.
type (
	// Runner is one run's configuration — classifier, inference tier,
	// dataset cache and cell dispatcher — and runs the experiments; its
	// zero value evaluates with nearest centroid and caches nothing.
	Runner = core.Runner
	// Scenario is one experimental configuration (browser, OS, attack,
	// isolation, defenses).
	Scenario = core.Scenario
	// Scale sets dataset sizes and cross-validation folds.
	Scale = core.Scale
	// Result is a cross-validated accuracy summary.
	Result = core.Result
	// AttackKind selects loop- or sweep-counting.
	AttackKind = core.AttackKind
	// TimerMaker builds a per-trace secure timer.
	TimerMaker = core.TimerMaker
	// ClassifierMaker builds a fresh classifier per fold.
	ClassifierMaker = core.ClassifierMaker
	// Store is a sealed, columnar labeled dataset of traces.
	Store = trace.Store
	// View is a row subset of a Store; classifiers fit on it.
	View = trace.View
	// Trace is one recorded attack trace.
	Trace = trace.Trace
	// Browser identifies an evaluated browser.
	Browser = browser.Browser
	// OS identifies an operating-system personality.
	OS = kernel.OS
	// Isolation describes Table 3's isolation mechanisms.
	Isolation = kernel.Isolation
	// Classifier is the trainable model interface.
	Classifier = ml.Classifier
	// Timer is a secure-timer transfer function.
	Timer = clockface.Timer
	// Time is a point on the simulation's virtual clock (ns).
	Time = sim.Time
	// Duration is a span of virtual time (ns).
	Duration = sim.Duration
)

// Attack kinds.
const (
	LoopCounting  = core.LoopCounting
	SweepCounting = core.SweepCounting
)

// Browsers from Table 1.
const (
	Chrome     = browser.Chrome
	Firefox    = browser.Firefox
	Safari     = browser.Safari
	TorBrowser = browser.TorBrowser
)

// Operating systems from Table 1.
const (
	Linux   = kernel.Linux
	Windows = kernel.Windows
	MacOS   = kernel.MacOS
)

// Attacker implementation variants (loop-body cost).
var (
	JSAttacker     = attack.JS
	PythonAttacker = attack.Python
	RustAttacker   = attack.Rust
	CSSAttacker    = attack.CSS
)

// CollectTrace simulates one labeled trace of the given site.
func CollectTrace(scn Scenario, domain string, label, visit int, seed uint64) (Trace, error) {
	return core.CollectOne(scn, website.ProfileFor(domain), label, visit, seed)
}

// Evaluate cross-validates a classifier on a dataset.
func Evaluate(st *Store, sc Scale, mk ClassifierMaker, name string) (Result, error) {
	return core.Evaluate(st, sc, mk, name)
}

// ClosedWorldDomains returns the paper's Appendix-A 100-site closed world.
func ClosedWorldDomains() []string { return website.ClosedWorldDomains() }

// DefaultClassifier is the fast correlation-matching classifier the
// harness uses by default.
func DefaultClassifier(seed uint64) Classifier { return core.DefaultClassifier(seed) }

// SignatureOf measures a site's characteristic interrupt-type mix — the
// per-type delivery rates the paper's §5.2 observes differ between sites
// (weather.com's TLB shootdowns vs nytimes.com's network softirqs).
var SignatureOf = core.SignatureOf

// Experiment reproduction entry points (see EXPERIMENTS.md). Tables 1-4,
// BackgroundNoise, Figure4, CollectDataset and RunExperiment are Runner
// methods.
var (
	Figure3 = core.Figure3
	Figure5 = core.Figure5
	Figure6 = core.Figure6
	Figure7 = core.Figure7
	Figure8 = core.Figure8
)
