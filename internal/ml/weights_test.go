package ml

import (
	"testing"

	"repro/internal/sim"
)

func TestExportIsACopy(t *testing.T) {
	rng := sim.NewStream(3, "w")
	m := &Sequential{Layers: []Layer{NewDense(rng, 2, 2)}}
	ws := m.ExportWeights()
	orig := m.Params()[0].W[0]
	ws.Blobs[0][0] = orig + 42
	if m.Params()[0].W[0] != orig {
		t.Fatal("ExportWeights aliases model storage")
	}
}
