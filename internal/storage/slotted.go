package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Slotted page layout (after the PageHeaderSize LSN prefix):
//
//	[numSlots uint16][freeEnd uint16][slot 0][slot 1]...      records grow down
//	each slot: [offset uint16][length uint16]; length==0xFFFF marks a dead slot
//
// Records are addressed by slot number, which stays stable across record
// deletion (slots are tombstoned, not reused for different records), so a
// (PageID, slot) pair is a durable record identifier.

const (
	slotTableStart = PageHeaderSize + 4 // after numSlots + freeEnd
	slotSize       = 4
	deadLen        = 0xFFFF
)

// ErrPageFull reports that a record does not fit in the page.
var ErrPageFull = errors.New("storage: page full")

// ErrNoRecord reports access to a dead or out-of-range slot.
var ErrNoRecord = errors.New("storage: no such record")

// SlottedPage provides record-level access to a page's payload. It does not
// latch; callers coordinate via the page latch.
type SlottedPage struct {
	p *Page
}

// Slotted wraps p for record access. The page must have been initialised
// with InitSlotted (all-zero fresh pages are also valid: they read as empty).
func Slotted(p *Page) *SlottedPage { return &SlottedPage{p: p} }

// InitSlotted formats p as an empty slotted page.
func InitSlotted(p *Page) *SlottedPage {
	sp := &SlottedPage{p: p}
	sp.setNumSlots(0)
	sp.setFreeEnd(PageSize)
	p.MarkDirty()
	return sp
}

func (sp *SlottedPage) numSlots() int {
	return int(binary.BigEndian.Uint16(sp.p.data[PageHeaderSize:]))
}

func (sp *SlottedPage) setNumSlots(n int) {
	binary.BigEndian.PutUint16(sp.p.data[PageHeaderSize:], uint16(n))
}

func (sp *SlottedPage) freeEnd() int {
	v := int(binary.BigEndian.Uint16(sp.p.data[PageHeaderSize+2:]))
	if v == 0 { // fresh all-zero page
		return PageSize
	}
	return v
}

func (sp *SlottedPage) setFreeEnd(v int) {
	// PageSize == 4096 fits in uint16; an exactly-full page stores 4096
	// directly since offsets are < 4096.
	binary.BigEndian.PutUint16(sp.p.data[PageHeaderSize+2:], uint16(v))
}

func (sp *SlottedPage) slot(i int) (off, length int) {
	base := slotTableStart + i*slotSize
	off = int(binary.BigEndian.Uint16(sp.p.data[base:]))
	length = int(binary.BigEndian.Uint16(sp.p.data[base+2:]))
	return
}

func (sp *SlottedPage) setSlot(i, off, length int) {
	base := slotTableStart + i*slotSize
	binary.BigEndian.PutUint16(sp.p.data[base:], uint16(off))
	binary.BigEndian.PutUint16(sp.p.data[base+2:], uint16(length))
}

// FreeSpace returns the number of payload bytes available for one more
// record (including its slot entry).
func (sp *SlottedPage) FreeSpace() int {
	used := slotTableStart + sp.numSlots()*slotSize
	free := sp.freeEnd() - used - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// NumSlots returns the number of slots ever allocated in the page,
// including dead ones.
func (sp *SlottedPage) NumSlots() int { return sp.numSlots() }

// Insert stores rec in the page and returns its slot number.
func (sp *SlottedPage) Insert(rec []byte) (int, error) {
	if len(rec) >= deadLen {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	if len(rec) > sp.FreeSpace() {
		return 0, ErrPageFull
	}
	n := sp.numSlots()
	end := sp.freeEnd()
	off := end - len(rec)
	copy(sp.p.data[off:end], rec)
	sp.setSlot(n, off, len(rec))
	sp.setNumSlots(n + 1)
	sp.setFreeEnd(off)
	sp.p.MarkDirty()
	return n, nil
}

// InsertAt stores rec into a specific slot number, extending the slot table
// as needed. It is used by recovery redo to reproduce an insert exactly,
// and compacts the page if fragmentation blocks an otherwise-fitting record.
func (sp *SlottedPage) InsertAt(slot int, rec []byte) error {
	n := sp.numSlots()
	if slot < n {
		if _, l := sp.slot(slot); l != deadLen && l != 0 {
			return fmt.Errorf("storage: slot %d already live", slot)
		}
	} else {
		needed := (slot + 1 - n) * slotSize
		if needed+len(rec) > sp.FreeSpace()+slotSize {
			sp.compactExcluding(-1)
			if needed+len(rec) > sp.FreeSpace()+slotSize {
				return ErrPageFull
			}
		}
		for i := n; i <= slot; i++ {
			sp.setSlot(i, 0, deadLen)
		}
		sp.setNumSlots(slot + 1)
	}
	end := sp.freeEnd()
	off := end - len(rec)
	if off < slotTableStart+sp.numSlots()*slotSize {
		sp.compactExcluding(-1)
		end = sp.freeEnd()
		off = end - len(rec)
		if off < slotTableStart+sp.numSlots()*slotSize {
			return ErrPageFull
		}
	}
	copy(sp.p.data[off:end], rec)
	sp.setSlot(slot, off, len(rec))
	sp.setFreeEnd(off)
	sp.p.MarkDirty()
	return nil
}

// Get returns the record at slot. The returned slice aliases page memory;
// callers must copy it if they retain it past the page pin.
func (sp *SlottedPage) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= sp.numSlots() {
		return nil, ErrNoRecord
	}
	off, length := sp.slot(slot)
	if length == deadLen {
		return nil, ErrNoRecord
	}
	return sp.p.data[off : off+length], nil
}

// Delete tombstones the record at slot. The slot number is never reused.
func (sp *SlottedPage) Delete(slot int) error {
	if slot < 0 || slot >= sp.numSlots() {
		return ErrNoRecord
	}
	_, length := sp.slot(slot)
	if length == deadLen {
		return ErrNoRecord
	}
	sp.setSlot(slot, 0, deadLen)
	sp.p.MarkDirty()
	return nil
}

// Update replaces the record at slot with rec. A growing record is stored
// in fresh free space; when that is exhausted the page is compacted
// (abandoned space from earlier grow-updates and deletes is reclaimed)
// before giving up with ErrPageFull, in which case the caller relocates the
// record to another page.
func (sp *SlottedPage) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= sp.numSlots() {
		return ErrNoRecord
	}
	off, length := sp.slot(slot)
	if length == deadLen {
		return ErrNoRecord
	}
	if len(rec) <= length {
		copy(sp.p.data[off:off+len(rec)], rec)
		sp.setSlot(slot, off, len(rec))
		sp.p.MarkDirty()
		return nil
	}
	if len(rec) >= deadLen {
		return ErrPageFull
	}
	if len(rec) > sp.FreeSpace()+slotSize {
		// Reclaim abandoned space, treating the target slot as dead so its
		// old copy is not preserved.
		old := make([]byte, length)
		copy(old, sp.p.data[off:off+length])
		sp.compactExcluding(slot)
		if len(rec) > sp.contiguousFree() {
			// Still no room: restore the old record (it fit before) and
			// let the caller relocate.
			end := sp.freeEnd()
			noff := end - len(old)
			copy(sp.p.data[noff:end], old)
			sp.setSlot(slot, noff, len(old))
			sp.setFreeEnd(noff)
			sp.p.MarkDirty()
			return ErrPageFull
		}
	}
	end := sp.freeEnd()
	noff := end - len(rec)
	copy(sp.p.data[noff:end], rec)
	sp.setSlot(slot, noff, len(rec))
	sp.setFreeEnd(noff)
	sp.p.MarkDirty()
	return nil
}

// UpdateFits reports whether Update(slot, rec) with len(rec) == n would
// succeed, without touching the page: write-ahead callers check it before
// logging, so the log never holds an update the page could not apply.
func (sp *SlottedPage) UpdateFits(slot, n int) bool {
	_, length := sp.slot(slot)
	switch {
	case n <= length:
		return true
	case n >= deadLen:
		return false
	case n <= sp.FreeSpace()+slotSize:
		return true // fast path: fits without compaction
	}
	// Update's fallback compacts the page without the slot's old copy.
	live := 0
	for i := 0; i < sp.numSlots(); i++ {
		if _, l := sp.slot(i); i != slot && l != deadLen {
			live += l
		}
	}
	return n <= PageSize-live-(slotTableStart+sp.numSlots()*slotSize)
}

// contiguousFree returns the bytes available between the slot table and the
// record area, without reserving room for a new slot entry.
func (sp *SlottedPage) contiguousFree() int {
	free := sp.freeEnd() - (slotTableStart + sp.numSlots()*slotSize)
	if free < 0 {
		return 0
	}
	return free
}

// compactExcluding rewrites every live record (except skipSlot, treated as
// dead) contiguously at the end of the page, reclaiming space abandoned by
// grown updates and deletions. Slot numbers are preserved. Pass -1 to keep
// every record.
func (sp *SlottedPage) compactExcluding(skipSlot int) {
	n := sp.numSlots()
	type item struct {
		slot int
		data []byte
	}
	live := make([]item, 0, n)
	for i := 0; i < n; i++ {
		if i == skipSlot {
			continue
		}
		off, l := sp.slot(i)
		if l == deadLen {
			continue
		}
		d := make([]byte, l)
		copy(d, sp.p.data[off:off+l])
		live = append(live, item{i, d})
	}
	end := PageSize
	for _, it := range live {
		off := end - len(it.data)
		copy(sp.p.data[off:end], it.data)
		sp.setSlot(it.slot, off, len(it.data))
		end = off
	}
	if skipSlot >= 0 && skipSlot < n {
		sp.setSlot(skipSlot, 0, deadLen)
	}
	sp.setFreeEnd(end)
	sp.p.MarkDirty()
}

// Live reports whether slot holds a live record.
func (sp *SlottedPage) Live(slot int) bool {
	if slot < 0 || slot >= sp.numSlots() {
		return false
	}
	_, length := sp.slot(slot)
	return length != deadLen
}
