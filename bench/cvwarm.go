package main

import "fmt"

// cvOnly is the background-noise table: two datasets, small enough that
// the cold set-up fits three times in a run.
const cvOnly = "bg"

// cvWarm is the "re-run with another classifier" flow. Set-up collects the
// datasets once, cold, straight into the mmap-backed disk tier (-dsbudget
// 1 keeps nothing resident); each operation then re-runs the table with
// logreg and then cnn, reading the datasets back instead of simulating, so
// preprocessing, fit, compiled-tier prediction and store reloads are all of
// the measured work.
func cvWarm(e *env) (*outcome, error) {
	var setup []float64
	var spill string
	for i := 0; i < 3; i++ {
		spill = e.path("spill-%d", i)
		out := e.path("cold-%d", i)
		stdout, u, err := e.run("experiments", e.experimentsArgs(cvOnly, out, "-dsspill", spill, "-dsbudget", "1")...)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := e.checkOutput("cv-warm/centroid", stdout, out); err != nil {
			e.fail("set-up: %v", err)
		}
		setup = append(setup, u.wall.Seconds())
	}
	var plain, traced opSamples
	layers := layerSamples{}
	attempted, failed := e.timed(func(i int) error {
		tr := e.trace && i%2 == 0
		var pair usage
		var t tally
		for _, clf := range []string{"logreg", "cnn"} {
			out, obsDir := e.path("op-%d-%s", i, clf), e.path("op-%d-%s-obs", i, clf)
			args := e.experimentsArgs(cvOnly, out, "-dsspill", spill, "-dsbudget", "1", "-clf", clf)
			if tr {
				args = append(args, "-manifest", "run.json", "-outdir", obsDir)
			}
			stdout, u, err := e.run("experiments", args...)
			if err != nil {
				return err
			}
			if err := e.checkOutput("cv-warm/"+clf, stdout, out); err != nil {
				return err
			}
			pair.wall += u.wall
			pair.cpu += u.cpu
			pair.rssMB = max(pair.rssMB, u.rssMB)
			if tr {
				events := t.events
				if err := e.addManifest(&t, "cv-warm/"+clf, obsDir, u.wall, 0); err != nil {
					return err
				}
				if t.events != events {
					return fmt.Errorf("warm %s re-run simulated %v events", clf, t.events-events)
				}
			}
		}
		if !tr {
			plain.add(pair)
			return nil
		}
		traced.add(pair)
		layers.add(t.metrics())
		return nil
	})
	return e.finish(attempted, failed, &plain, &traced, layers, setup), nil
}
