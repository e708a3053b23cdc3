// Package cluster turns the block fan-out method into a real multi-node
// system: worker nodes each run the work-stealing engine over their slice
// of the block→processor mapping and exchange completed block columns over
// TCP (internal/cluster/wire), while a gateway shards factor ownership by
// sparsity pattern, tracks membership, and drives buddy failover when a
// node dies mid-factorization.
//
// The distribution model is the paper's §2.3 fan-out method lifted one
// level: the schedule's virtual processors are partitioned across nodes by
// the speed-aware greedy heuristic (mapping.GreedyWeighted over per-proc
// flop loads), each node executes exactly the blocks its processors own,
// and a completed block is shipped — once per consumer node, the
// aggregated analogue of the simulator's per-processor fan-out — to every
// node owning a processor that needs it, plus the assembly targets that
// collect the whole factor for solves.
//
// Failure handling realizes machine.FaultPlan's buddy protocol: when a
// node dies, machine.Buddy reassigns its processors to the next surviving
// node, the epoch counter bumps, and every survivor restarts from its
// completed-block frontier — blocks whose final data a node already holds
// are predone (fanout.Restriction), everything else reverts to matrix
// values (numeric.Factor.ReloadWhere) and is re-executed.
package cluster

import (
	"fmt"

	"blockfanout/internal/blocks"
	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
)

// planOptions converts a StartJob's plan parameters to core.Options. Node
// and gateway must derive byte-identical plans, so everything that feeds
// core.NewPlan crosses the wire.
func planOptions(sj *wire.StartJob) core.Options {
	return core.Options{
		BlockSize:      int(sj.BlockSize),
		Ordering:       order.Method(sj.Ordering),
		Blocking:       blocks.Strategy(sj.Blocking),
		AmalgThreshold: sj.AmalgThr,
		Exec:           fanout.Mode(sj.Exec),
	}
}

// buildSchedule derives the cluster's canonical assignment for a plan:
// best-fit grid over the virtual processor count, Increasing Depth rows ×
// Column-intensive columns (the serving tier's configuration), domains
// enabled. Gateway and nodes call the same function so every party holds
// the identical sched.Program.
func buildSchedule(plan *core.Plan, procs int) (sched.Assignment, *sched.Program) {
	g := mapping.BestGrid(procs)
	mp := plan.Map(g, mapping.ID, mapping.CY)
	a := plan.Assign(mp, 2)
	return a, sched.Build(plan.BS, a)
}

// procLoads returns each virtual processor's flop load under the
// owner-computes model: a block's completing operation (BFAC/BDIV) plus
// every BMOD targeting a block it owns. This is the weight vector the
// gateway feeds mapping.GreedyWeighted to split processors across nodes of
// unequal speed.
func procLoads(pr *sched.Program) []int64 {
	load := make([]int64, pr.NProc)
	for id := 0; id < pr.NBlocks; id++ {
		load[pr.Owner[id]] += pr.OwnOpFlops[id]
	}
	pt := pr.Pairs()
	for p := range pt.Col {
		load[pr.Owner[pt.Dest[p]]] += pr.ModFlops(int(pt.Col[p]), int(pt.A[p]), int(pt.B[p]))
	}
	return load
}

// matrixToWire flattens a matrix's structure for a StartJob frame.
func matrixToWire(m *sparse.Matrix) (colptr, rowind []uint32) {
	colptr = make([]uint32, len(m.ColPtr))
	for i, v := range m.ColPtr {
		colptr[i] = uint32(v)
	}
	rowind = make([]uint32, len(m.RowInd))
	for i, v := range m.RowInd {
		rowind[i] = uint32(v)
	}
	return colptr, rowind
}

// wireToMatrix rebuilds and validates the matrix carried by a StartJob.
func wireToMatrix(sj *wire.StartJob) (*sparse.Matrix, error) {
	m := &sparse.Matrix{
		N:      int(sj.N),
		ColPtr: make([]int, len(sj.ColPtr)),
		RowInd: make([]int, len(sj.RowInd)),
		Val:    sj.Val,
	}
	for i, v := range sj.ColPtr {
		m.ColPtr[i] = int(v)
	}
	for i, v := range sj.RowInd {
		m.RowInd[i] = int(v)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: StartJob matrix invalid: %w", err)
	}
	return m, nil
}

// permuteVals routes A-order values onto the plan's permuted pattern, the
// layout numeric.Factor.Reload/ReloadWhere expect.
func permuteVals(plan *core.Plan, values []float64) []float64 {
	pv := make([]float64, len(values))
	for q, src := range plan.ValMap {
		pv[q] = values[src]
	}
	return pv
}
