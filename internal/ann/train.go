package ann

import (
	"fmt"
	"math"
	"math/rand/v2"

	"kafkarel/internal/stats"
)

// TrainResult summarises a training run.
type TrainResult struct {
	Epochs    int
	FinalLoss float64 // mean squared error over the training set
	TrainMAE  float64
}

// The one network and how it trains: two tanh hidden layers of 32 and 16
// neurons under sigmoid outputs, momentum SGD in mini-batches of 4 for at
// most 400 epochs. It is far smaller than the paper's 200/200/200/64
// sigmoid network (lr 0.5, 1000 epochs), which on the Fig. 3 grid trained
// ~400× longer to about twice the held-out MAE.
const (
	hidden1, hidden2 = 32, 16
	learningRate     = 0.1
	momentum         = 0.9
	batchSize        = 4
	epochs           = 400
	// targetMAE stops training early once the training MAE is below it
	// (checked every 10 epochs): half the paper's MAE < 0.02 bar.
	targetMAE = 0.01
)

// Train fits the network to (x, y) with mini-batch SGD on MSE loss.
func (n *Network) Train(x, y [][]float64) (TrainResult, error) {
	if len(x) == 0 || len(x) != len(y) {
		return TrainResult{}, fmt.Errorf("ann: train with %d inputs, %d targets", len(x), len(y))
	}
	for i := range x {
		if len(x[i]) != n.inputs {
			return TrainResult{}, fmt.Errorf("ann: sample %d has %d dims, want %d", i, len(x[i]), n.inputs)
		}
		if len(y[i]) != n.outputs {
			return TrainResult{}, fmt.Errorf("ann: target %d has %d dims, want %d", i, len(y[i]), n.outputs)
		}
	}
	batch := min(batchSize, len(x))
	rng := rand.New(rand.NewPCG(n.seed, 0x7a1b))
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}

	// Gradient accumulators, one per layer.
	gw := make([][]float64, len(n.layers))
	gb := make([][]float64, len(n.layers))
	for li, l := range n.layers {
		gw[li] = make([]float64, len(l.w))
		gb[li] = make([]float64, len(l.b))
	}
	gradOut := make([]float64, n.outputs)

	var res TrainResult
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lossSum := 0.0
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			for li := range gw {
				clear(gw[li])
				clear(gb[li])
			}
			for _, idx := range order[start:end] {
				pred := n.forwardInPlace(x[idx])
				for j := range gradOut {
					diff := pred[j] - y[idx][j]
					// d(MSE)/d(pred_j) with MSE averaged over outputs.
					gradOut[j] = 2 * diff / float64(n.outputs)
					lossSum += diff * diff / float64(n.outputs)
				}
				n.backward(gradOut, gw, gb)
			}
			n.applyGradients(gw, gb, end-start)
		}
		loss := lossSum / float64(len(x))
		res.Epochs = epoch + 1
		res.FinalLoss = loss
		if (epoch+1)%10 == 0 {
			mae, _, err := n.Evaluate(x, y)
			if err != nil {
				return res, err
			}
			if mae < targetMAE {
				break
			}
		}
	}
	mae, _, err := n.Evaluate(x, y)
	if err != nil {
		return res, err
	}
	res.TrainMAE = mae
	return res, nil
}

// forwardInPlace is Forward without the defensive copy, for training.
func (n *Network) forwardInPlace(x []float64) []float64 {
	cur := x
	for _, l := range n.layers {
		l.forward(cur)
		cur = l.output
	}
	return cur
}

func (n *Network) applyGradients(gw, gb [][]float64, count int) {
	scale := learningRate / float64(count)
	for li, l := range n.layers {
		for i := range l.w {
			l.vw[i] = momentum*l.vw[i] - scale*gw[li][i]
			l.w[i] += l.vw[i]
		}
		for i := range l.b {
			l.vb[i] = momentum*l.vb[i] - scale*gb[li][i]
			l.b[i] += l.vb[i]
		}
	}
}

// Evaluate returns the MAE and RMSE of predictions over all outputs.
func (n *Network) Evaluate(x, y [][]float64) (mae, rmse float64, err error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, 0, fmt.Errorf("ann: evaluate with %d inputs, %d targets", len(x), len(y))
	}
	var pred, truth []float64
	for i := range x {
		p := n.forwardInPlace(x[i])
		pred = append(pred, p...)
		truth = append(truth, y[i]...)
	}
	mae, err = stats.MAE(pred, truth)
	if err != nil {
		return 0, 0, err
	}
	rmse, err = stats.RMSE(pred, truth)
	if err != nil {
		return 0, 0, err
	}
	if math.IsNaN(mae) || math.IsNaN(rmse) {
		return mae, rmse, fmt.Errorf("ann: evaluation produced NaN (diverged training?)")
	}
	return mae, rmse, nil
}
