// Incremental neighbor-index maintenance for node relocation. Mobility makes
// Move the hot topology operation: a waypoint epoch relocates every mobile
// node once per step, and a full SoA rebuild per relocation would cost
// O(nodes · degree) where only the moved node's links can change. Move
// instead patches the segment arena: the mover's row is recomputed from the
// grid, and only nodes inside the 3×3 cell blocks around the old and new
// position — the complete set whose link to the mover can appear, vanish, or
// change strength — get their rows rebuilt. Everything else is untouched.
//
// Patched rows are appended to the arena and the node's segment pointer is
// swung over; the superseded data stays in place because pendingFrames of
// frames still in flight alias it (the same aliasing contract a full rebuild
// honors). When superseded segments outweigh live ones the index compacts
// with an ordinary full rebuild.
//
// Determinism: Move consumes no randomness and rows stay sorted by id
// whatever the grid-bucket iteration order.
package medium

import (
	"math"
	"sort"

	"repro/internal/core"
)

// moveCompactMin is the arena size below which Move never compacts; above
// it, a full rebuild runs once superseded entries outnumber live ones.
const moveCompactMin = 1024

// Move relocates a node mid-run and updates the neighbor index
// incrementally. Positions set before the first transmission (or while the
// index is invalidated) are simply recorded — the lazy build picks them up.
// Moving an id that is not a registered receiver (say, a node that already
// died) only records the position.
func (m *Medium) Move(id core.NodeID, p Position) {
	if m.sp == nil {
		panic("medium: Move before EnableSpatial")
	}
	sp := m.sp
	_, placed := sp.pos[id]
	sp.pos[id] = p
	ix := sp.nbr
	if ix == nil {
		return
	}
	if !placed {
		// First sighting of this id: not in the grid, so no incremental
		// patch is possible. (Does not happen in practice — every receiver
		// is placed before the index is built.)
		m.invalidateNeighbors()
		return
	}
	if _, reg := ix.rows[id]; !reg {
		return
	}

	cell := sp.cfg.TxRangeM
	oldCell := ix.cellOf[id]
	newCell := packCell(cellCoord(p.X, cell), cellCoord(p.Y, cell))
	if newCell != oldCell {
		ix.removeFromCell(oldCell, id)
		ix.cells[newCell] = append(ix.cells[newCell], id)
		ix.cellOf[id] = newCell
	}

	// Candidate set: every node in the 3×3 blocks around the old and the new
	// cell. A link to the mover existed only if its endpoint was within
	// range of the old position (hence in the old block), and can exist now
	// only within range of the new one (hence in the new block) — the union
	// covers every row that can need a patch. Sorted + deduplicated so the
	// patch order is canonical whatever the bucket contents' history.
	cand := sp.mvScratch[:0]
	cand = ix.gatherBlock(cand, oldCell, id)
	if newCell != oldCell {
		cand = ix.gatherBlock(cand, newCell, id)
	}
	sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
	cand = dedupSorted(cand)
	sp.mvScratch = cand

	// The mover's own row: recomputed in full from the candidate set (ids
	// are sorted already, so the row comes out sorted).
	rangeSq := cell * cell
	start := int32(len(ix.ids))
	var cnt int32
	for _, u := range cand {
		q := sp.pos[u]
		dx, dy := q.X-p.X, q.Y-p.Y
		d2 := dx*dx + dy*dy
		if d2 > rangeSq {
			continue
		}
		rssi := sp.cfg.RSSI(math.Sqrt(d2))
		ix.ids = append(ix.ids, u)
		ix.rcvs = append(ix.rcvs, ix.rcvOf[u])
		ix.rssi = append(ix.rssi, rssi)
		ix.prr = append(ix.prr, sp.cfg.PRR(rssi))
		cnt++
	}
	ix.swingRow(id, start, cnt)

	// Reverse links: every candidate whose row mentioned the mover, or
	// should now, gets its row rebuilt with the link removed, inserted, or
	// re-weighted. Links are symmetric in distance, so the strength computed
	// above is reused.
	for _, u := range cand {
		lo, hi := ix.row(u)
		j := int32(-1)
		if k := searchIDs(ix.ids[lo:hi], id); k >= 0 {
			j = lo + int32(k)
		}
		q := sp.pos[u]
		dx, dy := q.X-p.X, q.Y-p.Y
		d2 := dx*dx + dy*dy
		inRange := d2 <= rangeSq
		if j < 0 && !inRange {
			continue
		}
		var rssi, prr float64
		if inRange {
			rssi = sp.cfg.RSSI(math.Sqrt(d2))
			prr = sp.cfg.PRR(rssi)
		}
		ix.patchRow(u, lo, hi, id, inRange, rssi, prr, ix.rcvOf[id])
	}

	if len(ix.ids) > moveCompactMin && int32(len(ix.ids)) > 2*ix.live {
		m.buildNeighbors()
	}
}

// cellCoord maps a coordinate to its grid cell index.
func cellCoord(x, cell float64) int64 { return int64(math.Floor(x / cell)) }

// gatherBlock appends every id (except self) in the 3×3 cell block around
// center to dst.
func (ix *nbrIndex) gatherBlock(dst []core.NodeID, center uint64, self core.NodeID) []core.NodeID {
	cx := int64(int32(center >> 32))
	cy := int64(int32(center))
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, u := range ix.cells[packCell(cx+dx, cy+dy)] {
				if u != self {
					dst = append(dst, u)
				}
			}
		}
	}
	return dst
}

// dedupSorted removes adjacent duplicates from a sorted id slice in place.
func dedupSorted(s []core.NodeID) []core.NodeID {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// removeFromCell deletes id from a grid bucket (swap-remove; row order never
// depends on bucket order, every consumer sorts).
func (ix *nbrIndex) removeFromCell(cell uint64, id core.NodeID) {
	b := ix.cells[cell]
	for i, u := range b {
		if u == id {
			b[i] = b[len(b)-1]
			ix.cells[cell] = b[:len(b)-1]
			return
		}
	}
}

// searchIDs binary-searches a sorted id row for dst, returning its offset or
// -1.
func searchIDs(ids []core.NodeID, dst core.NodeID) int {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= dst })
	if i < len(ids) && ids[i] == dst {
		return i
	}
	return -1
}

// swingRow repoints node u's segment to [start, start+cnt), retiring the old
// one (its entries become arena garbage).
func (ix *nbrIndex) swingRow(u core.NodeID, start, cnt int32) {
	r := ix.rows[u]
	ix.live += cnt - ix.segLen[r]
	ix.segOff[r] = start
	ix.segLen[r] = cnt
}

// patchRow rebuilds node u's row [lo, hi) as a fresh segment with the link
// to id removed (include=false) or present with the given strength
// (include=true, inserted in sorted position or replacing the old entry).
// The old segment is left intact for in-flight frames that alias it.
func (ix *nbrIndex) patchRow(u core.NodeID, lo, hi int32, id core.NodeID, include bool, rssi, prr float64, rcv Receiver) {
	start := int32(len(ix.ids))
	placed := false
	put := func(nid core.NodeID, nrcv Receiver, nrssi, nprr float64) {
		ix.ids = append(ix.ids, nid)
		ix.rcvs = append(ix.rcvs, nrcv)
		ix.rssi = append(ix.rssi, nrssi)
		ix.prr = append(ix.prr, nprr)
	}
	for k := lo; k < hi; k++ {
		if ix.ids[k] == id {
			continue
		}
		if include && !placed && ix.ids[k] > id {
			put(id, rcv, rssi, prr)
			placed = true
		}
		put(ix.ids[k], ix.rcvs[k], ix.rssi[k], ix.prr[k])
	}
	if include && !placed {
		put(id, rcv, rssi, prr)
	}
	ix.swingRow(u, start, int32(len(ix.ids))-start)
}
