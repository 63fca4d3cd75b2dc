package ann

import (
	"encoding/json"
	"fmt"
	"io"
)

// modelFile is the on-disk representation of a trained network: its
// input and output widths and its parameters. The layers in between are
// fixed, so the file carries no architecture.
type modelFile struct {
	Version int         `json:"version"`
	Inputs  int         `json:"inputs"`
	Outputs int         `json:"outputs"`
	Weights [][]float64 `json:"weights"` // per layer, row-major [out][in]
	Biases  [][]float64 `json:"biases"`
}

const modelVersion = 2

// Save writes the network's widths and parameters as JSON.
func (n *Network) Save(w io.Writer) error {
	mf := modelFile{Version: modelVersion, Inputs: n.inputs, Outputs: n.outputs}
	for _, l := range n.layers {
		wCopy := make([]float64, len(l.w))
		copy(wCopy, l.w)
		bCopy := make([]float64, len(l.b))
		copy(bCopy, l.b)
		mf.Weights = append(mf.Weights, wCopy)
		mf.Biases = append(mf.Biases, bCopy)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(mf); err != nil {
		return fmt.Errorf("ann: save: %w", err)
	}
	return nil
}

// Load reads a network written by Save.
func Load(r io.Reader) (*Network, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("ann: load: %w", err)
	}
	if mf.Version != modelVersion {
		return nil, fmt.Errorf("ann: load: unsupported model version %d", mf.Version)
	}
	if mf.Inputs <= 0 || mf.Outputs <= 0 {
		return nil, fmt.Errorf("ann: load: %d inputs, %d outputs", mf.Inputs, mf.Outputs)
	}
	shapes := layerShapes(mf.Inputs, mf.Outputs)
	if len(mf.Weights) != len(shapes) || len(mf.Biases) != len(shapes) {
		return nil, fmt.Errorf("ann: load: %d weight blocks for %d layers", len(mf.Weights), len(shapes))
	}
	for li, s := range shapes {
		if len(mf.Weights[li]) != s[0]*s[1] || len(mf.Biases[li]) != s[1] {
			return nil, fmt.Errorf("ann: load: layer %d shape mismatch", li)
		}
	}
	n := New(mf.Inputs, mf.Outputs, 0)
	for li, l := range n.layers {
		copy(l.w, mf.Weights[li])
		copy(l.b, mf.Biases[li])
	}
	return n, nil
}
