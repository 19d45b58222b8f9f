package probe

import (
	"fmt"
	"strings"
	"time"

	"github.com/patree/patree/internal/nvme"
)

// Model is the trained estimator (w0, r0) = T·β of equation (1): β is a
// 2n×2 matrix mapping the outstanding-submission feature vector to the
// expected number of write and read completions within the next slice.
type Model struct {
	beta [][]float64 // 2n rows, 2 columns (w0, r0)
	n    int         // slices per opcode class
}

// NewModel wraps a coefficient matrix. beta must be (2n)×2.
func NewModel(beta [][]float64) (*Model, error) {
	if len(beta) == 0 || len(beta)%2 != 0 {
		return nil, fmt.Errorf("probe: beta must have 2n rows, got %d", len(beta))
	}
	for i, row := range beta {
		if len(row) != 2 {
			return nil, fmt.Errorf("probe: beta row %d has %d columns, want 2", i, len(row))
		}
	}
	return &Model{beta: beta, n: len(beta) / 2}, nil
}

// Slices returns n, the per-class slice count the model was trained with.
func (m *Model) Slices() int { return m.n }

// Predict evaluates (w0, r0) = T·β. len(T) must be 2n. Negative
// predictions are clamped to zero (a count cannot be negative).
func (m *Model) Predict(T []float64) (w0, r0 float64) {
	if len(T) != 2*m.n {
		panic(fmt.Sprintf("probe: feature length %d, want %d", len(T), 2*m.n))
	}
	for i, v := range T {
		if v == 0 {
			continue
		}
		w0 += v * m.beta[i][0]
		r0 += v * m.beta[i][1]
	}
	if w0 < 0 {
		w0 = 0
	}
	if r0 < 0 {
		r0 = 0
	}
	return w0, r0
}

// MedianAge is the age by which a lone command of op's class has even
// odds of having completed: the age where the class's own coefficients
// (its slice rows of β, its column), summed from the youngest slice,
// cross ½, interpolated within the slice that crosses. slice is one
// slice's length; a class whose sum never reaches ½ gets the whole window.
func (m *Model) MedianAge(op nvme.Opcode, slice time.Duration) time.Duration {
	c := class(op)
	sum := 0.0
	for i, row := range m.beta[c*m.n : (c+1)*m.n] {
		b := row[c]
		if b > 0 && sum+b >= 0.5 {
			return time.Duration((float64(i) + (0.5-sum)/b) * float64(slice))
		}
		sum += b
	}
	return time.Duration(m.n) * slice
}

// Beta returns the coefficient matrix (not a copy; treat as read-only).
func (m *Model) Beta() [][]float64 { return m.beta }

// String renders the matrix compactly for cmd/patrain.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "probe model: n=%d slices per class\n", m.n)
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "feature", "→w0", "→r0")
	for i, row := range m.beta {
		cls, idx := "w", i
		if i >= m.n {
			cls, idx = "r", i-m.n
		}
		fmt.Fprintf(&b, "%s[%02d]   %12.6f %12.6f\n", cls, idx, row[0], row[1])
	}
	return b.String()
}
