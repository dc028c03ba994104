package nand

// varChunk is how many blocks share one lazily allocated slab of the
// variation memo.
const varChunk = 1024

// Evaluator answers the simulator's per-page read query for one
// device: a page's condition is derived once and yields the RBER at
// every VREF mode the read needs (the first-read mode, and OptimalVref
// for a retry), and each block's process variation (an exp of a hashed
// Box-Muller draw) is computed on the block's first read and memoised. Every value is bit-identical to the
// reference Model.PageRBER and Model.BlockVariation; only the
// redundant work is gone.
//
// The memo is allocated lazily in slabs of varChunk blocks, so
// building an evaluator costs nothing per block: a device that reads
// a few thousand blocks of a quarter-million-block geometry pays for
// a few slabs. An Evaluator is not safe for concurrent use; each
// simulated device owns one.
type Evaluator struct {
	m *Model
	// vars holds BlockVariation by block id in varChunk slabs; a zero
	// entry is not yet computed (the variation is an exp, never zero
	// for any sane BlockVarSigma).
	vars []*[varChunk]float64
}

// NewEvaluator returns an evaluator over m with an empty memo.
func NewEvaluator(m *Model) *Evaluator {
	return &Evaluator{m: m}
}

// BlockVariation is Model.BlockVariation, memoised per block.
//
//riflint:hotpath
func (e *Evaluator) BlockVariation(blockID int) float64 {
	slab := blockID / varChunk
	if slab >= len(e.vars) {
		e.growVars(slab)
	}
	s := e.vars[slab]
	if s == nil {
		//riflint:allow alloc -- one slab per varChunk blocks on the first read of any of them; reused for the device's lifetime
		s = new([varChunk]float64)
		e.vars[slab] = s
	}
	v := &s[blockID%varChunk]
	if *v == 0 {
		*v = e.m.BlockVariation(blockID)
	}
	return *v
}

// growVars extends the slab index to cover slab.
func (e *Evaluator) growVars(slab int) {
	//riflint:allow alloc -- slab index growth: one pointer per varChunk blocks, only while reads reach a new high block id
	grown := make([]*[varChunk]float64, slab+1)
	copy(grown, e.vars)
	e.vars = grown
}

// PageRead is one page read's operating point: the page type and the
// Vth condition derived once from (block, P/E, retention, reads). Any
// number of VREF modes can then be evaluated from it without
// re-deriving the condition — the simulator reads the first-read RBER
// at issue and the OptimalVref RBER only if the page enters a retry.
type PageRead struct {
	pt PageType
	c  condition
}

// Read derives one page read's condition, with the block's variation
// memoised.
//
//riflint:hotpath
func (e *Evaluator) Read(blockID int, pt PageType, pe int, retentionDays float64, reads int64) PageRead {
	return PageRead{pt: pt, c: e.m.conditionWith(e.BlockVariation(blockID), pe, retentionDays, reads)}
}

// RBER reports the read's raw bit error rate sensed at the given VREF
// mode. It equals PageRBER(blockID, pt, pe, retentionDays, reads, mode)
// for the inputs the PageRead was derived from, bit for bit.
//
//riflint:hotpath
func (e *Evaluator) RBER(r PageRead, mode VrefMode) float64 {
	m := e.m
	rber := 0.0
	for _, j := range thresholdsOf(r.pt) {
		rber += m.thresholdTail(j, r.c, m.vrefAt(j, mode, r.c))
	}
	return capRBER(rber)
}
