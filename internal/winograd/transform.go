package winograd

import "mptwino/internal/tensor"

// InputToWinograd computes X = Bᵀ·x·B for one T×T input tile.
func (tr *Transform) InputToWinograd(x *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.BT, x, tr.B)
}

// OutputFromWinograd computes y = Aᵀ·Y·A, the inverse transform of a T×T
// Winograd-domain output tile to the m×m spatial output tile.
func (tr *Transform) OutputFromWinograd(y *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.AT, y, tr.A)
}

// LiftOutputBias returns the T×T Winograd-domain tile L whose inverse
// output transform is a constant: Aᵀ·L·A = bias·𝟙(m×m). Adding L to every
// output tile therefore shifts every spatial neuron by exactly bias —
// used to emulate the negative pre-activation bias of trained ReLU
// networks when synthesizing activation-prediction workloads.
func (tr *Transform) LiftOutputBias(bias float32) *tensor.Mat {
	ata := tensor.MatMul(tr.AT, tr.A) // m×m, symmetric positive definite
	inv, err := tensor.MatInverse(ata)
	if err != nil {
		panic(err)
	}
	b := tensor.NewMat(tr.M, tr.M)
	for i := range b.Data {
		b.Data[i] = bias
	}
	x := tensor.Sandwich(inv, b, inv)
	return tensor.Sandwich(tr.A, x, tr.AT)
}

// PNSplit returns the positive and negative parts of a matrix
// (pos[i] = max(m[i],0), neg[i] = min(m[i],0)). Activation prediction
// (Section V-A) propagates the maximum possible quantization error through
// the inverse transform by multiplying the positive (negative) error bound
// with the positive (negative) coefficients separately.
func PNSplit(m *tensor.Mat) (pos, neg *tensor.Mat) {
	pos = tensor.NewMat(m.Rows, m.Cols)
	neg = tensor.NewMat(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			pos.Data[i] = v
		} else {
			neg.Data[i] = v
		}
	}
	return pos, neg
}
