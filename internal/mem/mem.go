// Package mem models the virtual memory system: per-application address
// spaces, virtual-to-physical translation with on-first-touch page
// allocation, the two hardware interleavings of physical addresses across
// memory controllers (cache-line and page granularity, Figure 5), and the
// page allocation policies the paper studies — default interleaving, the
// OS-assisted MC-targeted policy of Section 5.3, and the first-touch policy
// of Section 6.3.
package mem

import (
	"fmt"

	"offchip/internal/layout"
)

// Policy decides which memory controller should host a newly touched
// virtual page under page interleaving.
type Policy interface {
	// TargetMC picks the controller for a page. vpage is the virtual page
	// number, core the first core to touch it, desired the layout pass's
	// preference (-1 for none).
	TargetMC(vpage int64, core int, desired int) int
}

// InterleavedPolicy is the hardware/OS default: pages round-robin across
// controllers in first-touch order, regardless of who touches them.
type InterleavedPolicy struct {
	numMCs int
	next   int
}

// NewInterleavedPolicy returns the default policy for n controllers.
func NewInterleavedPolicy(n int) *InterleavedPolicy { return &InterleavedPolicy{numMCs: n} }

// TargetMC implements Policy.
func (p *InterleavedPolicy) TargetMC(int64, int, int) int {
	mc := p.next
	p.next = (p.next + 1) % p.numMCs
	return mc
}

// OSAssistedPolicy implements the modified page allocation of Section 5.3:
// honor the compiler's desired controller for each page (realizable via
// madvise in a real kernel); pages with no preference fall back to
// round-robin.
type OSAssistedPolicy struct {
	fallback InterleavedPolicy
}

// NewOSAssistedPolicy returns the OS-assisted policy for n controllers.
func NewOSAssistedPolicy(n int) *OSAssistedPolicy {
	return &OSAssistedPolicy{fallback: InterleavedPolicy{numMCs: n}}
}

// TargetMC implements Policy.
func (p *OSAssistedPolicy) TargetMC(vpage int64, core, desired int) int {
	if desired >= 0 && desired < p.fallback.numMCs {
		return desired
	}
	return p.fallback.TargetMC(vpage, core, desired)
}

// FirstTouchPolicy allocates a page from the controller of the cluster
// whose node first touches it (Section 6.3) — a greedy policy that assumes
// the first toucher is the dominant user.
type FirstTouchPolicy struct {
	// MCOfCore maps a core to its cluster's (primary) controller.
	MCOfCore func(core int) int
}

// TargetMC implements Policy.
func (p *FirstTouchPolicy) TargetMC(vpage int64, core, desired int) int {
	return p.MCOfCore(core)
}

// Config describes the physical memory system for an address space.
type Config struct {
	PageBytes  int64
	LineBytes  int64
	NumMCs     int
	Interleave layout.Granularity
	// PagesPerMC caps each controller's memory (0 = unbounded). When the
	// desired controller is full, allocation spills to the least-loaded
	// one, so the policy never increases page faults (Section 5.3).
	PagesPerMC int64
}

// AddressSpace is one application's virtual address space.
type AddressSpace struct {
	cfg    Config
	base   int64 // physical base; isolates co-running applications
	policy Policy

	pages   map[int64]int64 // vpage → physical page index (relative)
	nextOf  []int64         // per-MC next page slot
	allocOf []int64         // per-MC allocated (live) page count
	freeOf  [][]int64       // per-MC FIFO of physical pages freed by Remap
	Spills  int64           // allocations redirected by a full controller
}

// NewAddressSpace builds an address space with the given allocation policy
// (ignored under cache-line interleaving, where translation preserves the
// MC-select bits and the compiler alone controls placement).
func NewAddressSpace(cfg Config, base int64, policy Policy) *AddressSpace {
	if cfg.NumMCs <= 0 || cfg.PageBytes <= 0 || cfg.LineBytes <= 0 {
		panic(fmt.Sprintf("mem: bad config %+v", cfg))
	}
	if base%(cfg.PageBytes*int64(cfg.NumMCs)) != 0 {
		panic(fmt.Sprintf("mem: base %#x not aligned to %d pages", base, cfg.NumMCs))
	}
	return &AddressSpace{
		cfg:     cfg,
		base:    base,
		policy:  policy,
		pages:   map[int64]int64{},
		nextOf:  make([]int64, cfg.NumMCs),
		allocOf: make([]int64, cfg.NumMCs),
		freeOf:  make([][]int64, cfg.NumMCs),
	}
}

// Translate maps a virtual address to a physical address, allocating the
// backing page on first touch. core is the requesting core; desiredMC is
// the layout's preference for this address (-1 for none).
func (as *AddressSpace) Translate(vaddr int64, core, desiredMC int) int64 {
	if as.cfg.Interleave == layout.LineInterleave {
		// The MC-select bits sit inside the page offset: translation cannot
		// change them, so identity (plus the app base) models any layout.
		return as.base + vaddr
	}
	vpage := vaddr / as.cfg.PageBytes
	ppage, ok := as.pages[vpage]
	if !ok {
		ppage = as.allocate(vpage, core, desiredMC)
		as.pages[vpage] = ppage
	}
	return as.base + ppage*as.cfg.PageBytes + vaddr%as.cfg.PageBytes
}

// allocate picks a physical page for vpage honoring the policy and per-MC
// capacity.
func (as *AddressSpace) allocate(vpage int64, core, desiredMC int) int64 {
	mc := as.policy.TargetMC(vpage, core, desiredMC)
	if as.cfg.PagesPerMC > 0 && as.allocOf[mc] >= as.cfg.PagesPerMC {
		// Full: spill to the least-loaded controller.
		best := mc
		for i := range as.allocOf {
			if as.allocOf[i] < as.allocOf[best] {
				best = i
			}
		}
		if best == mc {
			panic("mem: physical memory exhausted")
		}
		mc = best
		as.Spills++
	}
	as.allocOf[mc]++
	if fl := as.freeOf[mc]; len(fl) > 0 {
		// Reuse a frame freed by a migration before extending the heap.
		ppage := fl[0]
		as.freeOf[mc] = fl[1:]
		return ppage
	}
	// Physical pages are striped so that page p maps to MC p mod NumMCs
	// (the page-interleaving of Figure 5); slot s of controller mc is page
	// s·NumMCs + mc.
	slot := as.nextOf[mc]
	as.nextOf[mc]++
	return slot*int64(as.cfg.NumMCs) + int64(mc)
}

// PageMC reports the controller currently hosting a virtual page, or false
// if the page has never been touched. Only meaningful under page
// interleaving, where a page lives wholly on one controller.
func (as *AddressSpace) PageMC(vpage int64) (int, bool) {
	ppage, ok := as.pages[vpage]
	if !ok {
		return 0, false
	}
	return int(ppage % int64(as.cfg.NumMCs)), true
}

// Remap moves a virtual page to a fresh physical frame on controller toMC,
// returning the frame's old controller. The old frame joins toMC's donor
// free list for reuse by later allocations, so the vpage→ppage map stays a
// bijection at every instant: the page is re-homed atomically, never
// double-homed or lost. Remap refuses (ok=false) when the page was never
// touched, already lives on toMC, or toMC is at its PagesPerMC capacity.
func (as *AddressSpace) Remap(vpage int64, toMC int) (from int, ok bool) {
	ppage, touched := as.pages[vpage]
	if !touched {
		return 0, false
	}
	from = int(ppage % int64(as.cfg.NumMCs))
	if from == toMC {
		return from, false
	}
	if as.cfg.PagesPerMC > 0 && as.allocOf[toMC] >= as.cfg.PagesPerMC {
		return from, false
	}
	as.allocOf[toMC]++
	var newpp int64
	if fl := as.freeOf[toMC]; len(fl) > 0 {
		newpp = fl[0]
		as.freeOf[toMC] = fl[1:]
	} else {
		slot := as.nextOf[toMC]
		as.nextOf[toMC]++
		newpp = slot*int64(as.cfg.NumMCs) + int64(toMC)
	}
	as.pages[vpage] = newpp
	as.allocOf[from]--
	as.freeOf[from] = append(as.freeOf[from], ppage)
	return from, true
}

// VerifyBijection checks the translation state's structural invariants:
// every mapped physical frame is unique (no page double-homed), lies below
// its controller's allocation cursor, and is absent from every free list;
// free-listed frames are themselves unique; and each controller's live count
// equals its mapped frames. It returns the first violation found.
func (as *AddressSpace) VerifyBijection() error {
	n := int64(as.cfg.NumMCs)
	free := map[int64]bool{}
	for mc, fl := range as.freeOf {
		for _, pp := range fl {
			if pp%n != int64(mc) {
				return fmt.Errorf("mem: free frame %d on MC %d's list, belongs to MC %d", pp, mc, pp%n)
			}
			if free[pp] {
				return fmt.Errorf("mem: frame %d free-listed twice", pp)
			}
			free[pp] = true
		}
	}
	seen := map[int64]int64{}
	live := make([]int64, as.cfg.NumMCs)
	for vp, pp := range as.pages {
		if prev, dup := seen[pp]; dup {
			return fmt.Errorf("mem: frame %d double-homed by vpages %d and %d", pp, prev, vp)
		}
		seen[pp] = vp
		if free[pp] {
			return fmt.Errorf("mem: vpage %d maps to free-listed frame %d", vp, pp)
		}
		mc := pp % n
		if pp/n >= as.nextOf[mc] {
			return fmt.Errorf("mem: vpage %d maps to unallocated frame %d (MC %d cursor %d)", vp, pp, mc, as.nextOf[mc])
		}
		live[mc]++
	}
	for mc, want := range live {
		if as.allocOf[mc] != want {
			return fmt.Errorf("mem: MC %d live count %d, page table says %d", mc, as.allocOf[mc], want)
		}
	}
	return nil
}

// MCOf returns the controller a physical address maps to under the
// configured interleaving.
func (as *AddressSpace) MCOf(paddr int64) int {
	return MCOf(paddr, as.cfg)
}

// MCOf returns the controller of a physical address under the given
// interleaving configuration.
func MCOf(paddr int64, cfg Config) int {
	if cfg.Interleave == layout.PageInterleave {
		return int((paddr / cfg.PageBytes) % int64(cfg.NumMCs))
	}
	return int((paddr / cfg.LineBytes) % int64(cfg.NumMCs))
}

// HomeBank returns the shared-L2 home bank of a physical address: lines
// interleave across all cores' banks (Figure 2b).
func HomeBank(paddr, lineBytes int64, cores int) int {
	return int((paddr / lineBytes) % int64(cores))
}

// LocalAddr compacts a physical address into the dense per-controller
// address space DRAM actually sees: controller i stores every N-th
// interleaving unit, and its row buffers hold contiguous runs of those
// units — a 4 KB row holds 4 KB of the controller's own data, not a 1/N
// slice of a global row.
func LocalAddr(paddr int64, cfg Config) int64 {
	unit := cfg.LineBytes
	if cfg.Interleave == layout.PageInterleave {
		unit = cfg.PageBytes
	}
	stripe := unit * int64(cfg.NumMCs)
	return (paddr/stripe)*unit + paddr%unit
}

// PagesAllocated returns the total allocated page count (for tests).
func (as *AddressSpace) PagesAllocated() int64 {
	var n int64
	for _, c := range as.allocOf {
		n += c
	}
	return n
}

// AllocOf returns the page count allocated from controller mc.
func (as *AddressSpace) AllocOf(mc int) int64 { return as.allocOf[mc] }
