package layout

import (
	"fmt"
	"sort"

	"offchip/internal/ir"
	"offchip/internal/linalg"
	"offchip/internal/mesh"
)

// ArrayLayout is the outcome of the pass for one array: either the identity
// (original row-major) layout, or the customized layout of Section 5.3. It
// exposes the virtual-address remapping the trace generator applies — the
// runtime meaning of the transformed references of Figure 9(c).
type ArrayLayout struct {
	Array     *ir.Array
	Optimized bool
	Reason    string      // why the array was left unoptimized (if it was)
	D2C       *DataToCore // the Data-to-Core step result (nil if unoptimized)

	elemSize int64

	// Transformed geometry: a' = U·a + shift lies in [0, newDims).
	u       *linalg.Mat
	shift   linalg.Vec
	newDims []int64
	strides []int64 // row-major strides of newDims[1:] within a row
	rowSize int64   // elements per partition-dimension row

	// Grouping: C clusters (private L2) or N cores (shared L2). Row r of
	// the partition dimension belongs to group ordOfRow[r] and is the
	// rowRank[r]-th row of that group.
	groups   int
	grain    int64 // G: elements per round-robin chunk (k·p private, p shared)
	ordOfRow []int32
	rowRank  []int64

	// Shared-L2 home-bank assignment: homeOf[c] is the L2 bank that holds
	// core c's data (nil for private L2).
	homeOf []int

	sizeBytes int64
	k         int   // MCs per cluster
	unitElems int64 // elements per interleaving unit p
	numMCs    int

	// Rewrite context (closed-form Figure 9(c) emission).
	cm      *ClusterMapping
	threads int
	b       int64 // data block size: partition rows per thread
}

// SizeBytes returns the virtual footprint of the array under this layout,
// including strip-mining/padding overhead.
func (al *ArrayLayout) SizeBytes() int64 { return al.sizeBytes }

// Offset maps an original element coordinate to its byte offset within the
// array's virtual allocation under this layout.
func (al *ArrayLayout) Offset(coord linalg.Vec) int64 {
	if len(coord) != al.Array.NumDims() {
		panic(fmt.Sprintf("layout: coordinate arity %d for %d-dimensional array %s", len(coord), al.Array.NumDims(), al.Array.Name))
	}
	p := make([]int64, len(coord))
	al.Transform(p, coord)
	off, _ := al.Place(p)
	return off
}

// The lowered form: Offset split into an affine part and a table part, so a
// trace generator can fold the affine part into its own per-nest rows once
// and evaluate each access without allocating. A coordinate a maps to the
// placement point p = U·a + shift (p = a for identity layouts) — Transform
// for one coordinate, Compose for an affine map of coordinates — and Place
// clamps p into the layout's data space and resolves the strip-mined,
// group-permuted position with its desired controller.

// Transform writes the placement point of an element coordinate into dst
// (len(dst) == len(coord)).
func (al *ArrayLayout) Transform(dst, coord []int64) {
	if !al.Optimized {
		copy(dst, coord)
		return
	}
	for d := range dst {
		v := al.shift[d]
		for e, c := range coord {
			v += al.u.At(d, e) * c
		}
		dst[d] = v
	}
}

// Compose maps an affine coordinate map to the affine map of its placement
// point over the same variables. rows holds one row of w coefficients per
// array dimension, the constant term last; dst receives U·rows with shift
// added to the constant column (a copy of rows for identity layouts).
func (al *ArrayLayout) Compose(dst, rows []int64, w int) {
	if !al.Optimized {
		copy(dst, rows)
		return
	}
	for d := range al.shift {
		for j := 0; j < w; j++ {
			var v int64
			for e := range al.shift {
				v += al.u.At(d, e) * rows[e*w+j]
			}
			if j == w-1 {
				v += al.shift[d]
			}
			dst[d*w+j] = v
		}
	}
}

// Place returns the byte offset of the placement point p and the memory
// controller the layout wants to serve it (DesiredMC of that offset, -1 for
// identity layouts). Out-of-range components are clamped into the data
// space. Place does not allocate.
func (al *ArrayLayout) Place(p []int64) (int64, int) {
	if !al.Optimized {
		return al.Array.LinearIndex(p) * al.elemSize, -1
	}
	r0 := clamp(p[0], 0, al.newDims[0]-1)
	var inRow int64
	for d := 1; d < len(p); d++ {
		inRow += clamp(p[d], 0, al.newDims[d]-1) * al.strides[d-1]
	}
	pos := al.rowRank[r0]*al.rowSize + inRow
	q, w := pos/al.grain, pos%al.grain
	ord := int(al.ordOfRow[r0])
	lin := (q*int64(al.groups)+int64(ord))*al.grain + w
	if al.homeOf != nil {
		return lin * al.elemSize, ord % al.numMCs
	}
	return lin * al.elemSize, ord*al.k + int(w/al.unitElems)
}

// DesiredMC returns the memory controller this layout wants to serve the
// interleaving unit containing the given byte offset, or -1 when the layout
// expresses no preference (unoptimized arrays). The OS-assisted page
// allocation policy consults this under page interleaving.
func (al *ArrayLayout) DesiredMC(byteOff int64) int {
	if !al.Optimized {
		return -1
	}
	lin := byteOff / al.elemSize
	if al.homeOf != nil {
		// Shared L2: group ordinals are home banks; the interleaving maps
		// a bank's units to MC bank%N' by construction.
		return int((lin / al.grain) % int64(al.groups) % int64(al.numMCs))
	}
	ord := (lin / al.grain) % int64(al.groups)
	j := (lin % al.grain) / al.unitElems
	return int(ord)*al.k + int(j)
}

func clamp(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// IdentityLayout returns the original row-major layout for an array (the
// baseline, and the fallback for unoptimizable arrays).
func IdentityLayout(arr *ir.Array, reason string) *ArrayLayout {
	return &ArrayLayout{
		Array:     arr,
		Optimized: false,
		Reason:    reason,
		elemSize:  arr.ElemSize,
		sizeBytes: arr.SizeBytes(),
	}
}

// customize builds the optimized layout for one array from its Data-to-Core
// result, under the machine's interleaving and L2 organization and the
// user's L2-to-MC mapping. threads is the number of worker threads the
// parallel loops are distributed over.
func customize(d2c *DataToCore, m Machine, cm *ClusterMapping, threads int) (*ArrayLayout, error) {
	arr := d2c.Array
	al := &ArrayLayout{
		Array:     arr,
		Optimized: true,
		D2C:       d2c,
		elemSize:  arr.ElemSize,
		u:         d2c.U,
		k:         cm.K,
		numMCs:    cm.NumMCs(),
	}
	al.unitElems = m.UnitBytes() / arr.ElemSize
	if al.unitElems == 0 {
		al.unitElems = 1
	}

	// Bounding box of the transformed data space: for a linear map the
	// extremes are at corners of the original box.
	n := arr.NumDims()
	lo := make(linalg.Vec, n)
	hi := make(linalg.Vec, n)
	first := true
	for corner := 0; corner < 1<<n; corner++ {
		c := make(linalg.Vec, n)
		for d := 0; d < n; d++ {
			if corner&(1<<d) != 0 {
				c[d] = arr.Dims[d] - 1
			}
		}
		img := d2c.U.MulVec(c)
		for d := 0; d < n; d++ {
			if first || img[d] < lo[d] {
				lo[d] = img[d]
			}
			if first || img[d] > hi[d] {
				hi[d] = img[d]
			}
		}
		first = false
	}
	al.shift = lo.Scale(-1)
	al.newDims = make([]int64, n)
	for d := 0; d < n; d++ {
		al.newDims[d] = hi[d] - lo[d] + 1
	}
	al.strides = make([]int64, n-1)
	al.rowSize = 1
	for d := n - 1; d >= 1; d-- {
		al.strides[d-1] = al.rowSize
		al.rowSize *= al.newDims[d]
	}

	d0 := al.newDims[0]
	if threads <= 0 {
		return nil, fmt.Errorf("layout: %d threads", threads)
	}
	b := (d0 + int64(threads) - 1) / int64(threads) // data block size
	// Pad the partition dimension so every thread owns exactly b rows —
	// the intra-array alignment padding of Section 5.3, which also makes
	// the customized reference a closed form (RewriteRef).
	d0 = b * int64(threads)
	al.newDims[0] = d0
	al.cm, al.threads, al.b = cm, threads, b

	switch m.L2 {
	case PrivateL2:
		al.groups = cm.NumClusters()
		al.grain = int64(cm.K) * al.unitElems
		ownerCluster := func(r int64) int32 {
			t := r / b
			if t >= int64(threads) {
				t = int64(threads) - 1
			}
			core := int(t) % m.Cores()
			return int32(cm.ClusterOf(core))
		}
		al.buildRowTables(d0, ownerCluster)
		maxQ := al.maxGroupChunks()
		al.sizeBytes = maxQ * int64(al.groups) * al.grain * al.elemSize
	case SharedL2:
		if m.Interleave != LineInterleave {
			return nil, fmt.Errorf("layout: shared L2 requires cache-line interleaving (the paper's Figure 22 configuration)")
		}
		cores := m.Cores()
		al.groups = cores
		al.grain = al.unitElems // p
		al.homeOf = assignHomeBanks(cm)
		ownerHome := func(r int64) int32 {
			t := r / b
			if t >= int64(threads) {
				t = int64(threads) - 1
			}
			return int32(al.homeOf[int(t)%cores])
		}
		al.buildRowTables(d0, ownerHome)
		maxQ := al.maxGroupChunks()
		al.sizeBytes = maxQ * int64(al.groups) * al.grain * al.elemSize
	default:
		return nil, fmt.Errorf("layout: unknown cache kind %v", m.L2)
	}
	return al, nil
}

// buildRowTables fills ordOfRow and rowRank: for every value r of the
// partition dimension, which group owns the row and the dense rank of the
// row among that group's rows.
func (al *ArrayLayout) buildRowTables(d0 int64, owner func(int64) int32) {
	al.ordOfRow = make([]int32, d0)
	al.rowRank = make([]int64, d0)
	counts := make([]int64, al.groups)
	for r := int64(0); r < d0; r++ {
		g := owner(r)
		al.ordOfRow[r] = g
		al.rowRank[r] = counts[g]
		counts[g]++
	}
}

// maxGroupChunks returns max over groups of ⌈rows·rowSize / grain⌉: the
// number of round-robin turns the layout needs, which (times groups×grain)
// is the padded footprint.
func (al *ArrayLayout) maxGroupChunks() int64 {
	counts := make([]int64, al.groups)
	for _, g := range al.ordOfRow {
		counts[g]++
	}
	var maxQ int64 = 1
	for _, rows := range counts {
		q := (rows*al.rowSize + al.grain - 1) / al.grain
		if q > maxQ {
			maxQ = q
		}
	}
	return maxQ
}

// assignHomeBanks resolves the shared-L2 tension of Section 5.3 — on-chip
// and off-chip localization cannot both be exact because the home bank
// (addr/p mod N) determines the controller (addr/p mod N′) — by taking the
// paper's second option: "first generate the layout localized for off-chip
// accesses and then try to localize the on-chip accesses as much as
// possible". Each core's data is homed on the nearest L2 bank whose
// interleave residue selects the core's desired controller, via a greedy
// nearest-first matching (each bank homes exactly one core's data, keeping
// bank load balanced). The desired controller is then hit exactly, and the
// home bank is a few hops away at most.
func assignHomeBanks(cm *ClusterMapping) []int {
	cores := cm.MeshX * cm.MeshY
	numMCs := cm.NumMCs()
	allowed := allowedMCs(cm)

	// Candidate (core, bank) pairs: the bank's interleave residue must map
	// to a controller in the cluster's allowed (desired-or-adjacent) set —
	// the Section 5.3 relaxation. Cost weighs the on-chip leg double: the
	// L1-to-home-bank path is traversed by every L1 miss (paths 1 and 5 of
	// Figure 2b), while the home-to-controller leg only by L2 misses.
	type pair struct {
		core, bank, cost int
	}
	var pairs []pair
	for t := 0; t < cores; t++ {
		tn := mesh.CoordOf(t, cm.MeshX)
		mask := allowed[cm.ClusterOf(t)]
		for u := 0; u < cores; u++ {
			mc := u % numMCs
			if !mask[mc] {
				continue
			}
			cost := 2*mesh.Dist(tn, mesh.CoordOf(u, cm.MeshX)) +
				cm.Placement.Dist(mesh.CoordOf(u, cm.MeshX), mc)
			pairs = append(pairs, pair{t, u, cost})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].cost != pairs[j].cost {
			return pairs[i].cost < pairs[j].cost
		}
		if pairs[i].core != pairs[j].core {
			return pairs[i].core < pairs[j].core
		}
		return pairs[i].bank < pairs[j].bank
	})
	homeOf := make([]int, cores)
	for i := range homeOf {
		homeOf[i] = -1
	}
	usedBank := make([]bool, cores)
	assigned := 0
	for _, p := range pairs {
		if homeOf[p.core] != -1 || usedBank[p.bank] {
			continue
		}
		homeOf[p.core] = p.bank
		usedBank[p.bank] = true
		assigned++
		if assigned == cores {
			break
		}
	}
	for t := range homeOf {
		if homeOf[t] == -1 {
			homeOf[t] = t // unreachable for valid mappings; keep total
		}
	}
	return homeOf
}

// allowedMCs returns, per cluster, the set of controllers the delta-skip
// accepts: the cluster's own controllers plus those at minimal distance
// from them (the "adjacent" controllers; the excluded set C of the paper
// holds the rest, e.g. the diagonally opposite corner).
func allowedMCs(cm *ClusterMapping) [][]bool {
	numMCs := cm.NumMCs()
	out := make([][]bool, cm.NumClusters())
	for ord := range out {
		mask := make([]bool, numMCs)
		desired := cm.MCsOf(ord)
		for _, mc := range desired {
			mask[mc] = true
		}
		minD := 1 << 30
		for mc := 0; mc < numMCs; mc++ {
			if mask[mc] {
				continue
			}
			for _, d := range desired {
				if dd := cm.Placement.Dist(cm.Placement.NodeOf(mc), d); dd < minD {
					minD = dd
				}
			}
		}
		for mc := 0; mc < numMCs; mc++ {
			if mask[mc] {
				continue
			}
			for _, d := range desired {
				if cm.Placement.Dist(cm.Placement.NodeOf(mc), d) == minD {
					mask[mc] = true
					break
				}
			}
		}
		out[ord] = mask
	}
	return out
}
