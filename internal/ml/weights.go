package ml

// Weights is a snapshot of every learnable parameter of a model, in layer
// order: the test oracle that pins what training produced
// (TestTrainedWeightsGolden digests it) without reaching into layers.
type Weights struct {
	Blobs [][]float64
}

// ExportWeights copies the model's parameters.
func (s *Sequential) ExportWeights() Weights {
	params := s.Params()
	w := Weights{Blobs: make([][]float64, len(params))}
	for i, p := range params {
		w.Blobs[i] = append([]float64(nil), p.W...)
	}
	return w
}
