package phy

import (
	"math"

	"softrate/internal/bitutil"
	"softrate/internal/channel"
	"softrate/internal/coding"
	"softrate/internal/ofdm"
)

// This file implements the batched receive path: the receiver front end
// (noise sampling, demapping, deinterleaving, depuncturing) runs per frame
// at queue time — consuming exactly the variates, in exactly the order, of
// a sequential ReceiveWS call — while the BCJR decodes, which consume no
// randomness, are deferred and run as one lockstep batch through
// coding.BatchWorkspace at flush time. The split makes the batch path
// bit-identical to the sequential path on the same noise stream, which the
// tests pin; it exists because the decoder dominates receive cost and the
// batch decoder runs several frames per trellis step. A flush also uses a
// second core: the batch decoder runs the backward recursion and half of
// the APP pass on its helper goroutine when that is idle (and both halves
// itself when it is not), with no allocation and the same bits either way.

// pendRx is one queued reception awaiting its deferred decodes.
type pendRx struct {
	rec      Reception // front-end verdicts: Detected, SNREstDB, PostambleDetected
	hdrOff   int       // header LLR lattice within batchQueue.llrBuf
	hdrLen   int
	hdrNInfo int
	payOff   int // payload LLR lattice within batchQueue.llrBuf
	payLen   int
	payNInfo int
	infoOff  int // ground-truth payload info bits within batchQueue.infoBuf
	hdrWant  int // original header + CRC-16 length, bytes
	bodyLen  int // original payload + CRC-32 length, bytes
	ibps     int // InfoBitsPerSymbol at the payload rate
}

// batchQueue is the Workspace's batched-receive scratch. Everything the
// deferred decodes need outlives the per-frame transmit scratch: queued
// transmissions are typically workspace-aliased and overwritten by the
// next TransmitWS, so the queue copies the LLR lattices and ground-truth
// bits out at queue time. All buffers are reused across flushes; steady
// state performs zero heap allocations.
type batchQueue struct {
	cw       coding.BatchWorkspace
	pend     []pendRx
	llrBuf   []float64
	infoBuf  []byte
	jobs     []coding.BatchJob
	mode     coding.BCJRMode
	haveMode bool

	recs     []Reception
	recPtrs  []*Reception
	hintsBuf []float64
	hdrBuf   []byte
	bodyBuf  []byte
}

// QueueReceive runs the receiver front end for one transmission now —
// consuming the same noise variates in the same order as ReceiveWS — and
// queues its header and payload decodes for the next FlushReceptions. All
// receptions queued between two flushes must use the same cfg.Decoder.
//
// The transmission may be workspace-aliased and overwritten before the
// flush: everything the deferred decode needs is copied out here.
func (ws *Workspace) QueueReceive(cfg Config, tx *Transmission, gains []complex128, ivar []float64, ns NormSource) {
	q := &ws.bq
	var p pendRx
	dataOff := tx.dataSymbolOffset()

	preSNREst := preambleSNREst(cfg, gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols], ns)
	p.rec.SNREstDB = channel.LinearToDB(preSNREst)
	p.rec.Detected = PreambleDetects(cfg, gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols])

	if tx.Frame.Postamble {
		off := tx.NumSymbols() - ofdm.PostambleSymbols
		preambleSNREst(cfg, gains[off:], ivar[off:], ns)
		p.rec.PostambleDetected = meanSINR(gains[off:], ivar[off:]) >= cfg.DetectSINR
	}

	if p.rec.Detected {
		if !q.haveMode {
			q.mode, q.haveMode = cfg.Decoder, true
		} else if q.mode != cfg.Decoder {
			panic("phy: mixed decoder modes queued in one receive batch")
		}

		hr := headerRate()
		dep := ws.segmentLLRs(cfg, tx.hdrSyms, len(tx.hdrInfoBits), hr,
			gains[ofdm.PreambleSymbols:dataOff], ivar[ofdm.PreambleSymbols:dataOff], ns)
		p.hdrOff, p.hdrLen, p.hdrNInfo = len(q.llrBuf), len(dep), len(tx.hdrInfoBits)
		q.llrBuf = append(q.llrBuf, dep...)

		r := tx.Frame.Rate
		dep = ws.segmentLLRs(cfg, tx.dataSyms, len(tx.infoBits), r,
			gains[dataOff:dataOff+len(tx.dataSyms)], ivar[dataOff:dataOff+len(tx.dataSyms)], ns)
		p.payOff, p.payLen, p.payNInfo = len(q.llrBuf), len(dep), len(tx.infoBits)
		q.llrBuf = append(q.llrBuf, dep...)

		p.infoOff = len(q.infoBuf)
		q.infoBuf = append(q.infoBuf, tx.infoBits...)
		p.hdrWant = len(tx.Frame.Header) + 2
		p.bodyLen = len(tx.Frame.Payload) + 4
		p.ibps = cfg.Mode.InfoBitsPerSymbol(r)
	}
	q.pend = append(q.pend, p)
}

// PendingReceives reports how many receptions are queued and undecoded.
func (ws *Workspace) PendingReceives() int { return len(ws.bq.pend) }

// FlushReceptions decodes every queued reception in one lockstep batch and
// returns the completed Receptions in queue order, each bit-identical to
// what a sequential ReceiveWS call would have produced on the same noise
// stream. The returned slice and the Receptions' fields alias the
// workspace and are valid until the next FlushReceptions call (queueing
// more receptions does not disturb them).
func (ws *Workspace) FlushReceptions() []*Reception {
	q := &ws.bq
	q.jobs = q.jobs[:0]
	for i := range q.pend {
		p := &q.pend[i]
		if !p.rec.Detected {
			continue
		}
		q.jobs = append(q.jobs,
			coding.BatchJob{LLRs: q.llrBuf[p.hdrOff : p.hdrOff+p.hdrLen], NInfo: p.hdrNInfo},
			coding.BatchJob{LLRs: q.llrBuf[p.payOff : p.payOff+p.payLen], NInfo: p.payNInfo})
	}
	var results []coding.BatchResult
	if len(q.jobs) > 0 {
		results = q.cw.DecodeBCJRBatch(q.jobs, q.mode)
	}

	n := len(q.pend)
	if cap(q.recs) < n {
		q.recs = make([]Reception, n)
		q.recPtrs = make([]*Reception, n)
	}
	q.recs, q.recPtrs = q.recs[:n], q.recPtrs[:n]
	q.hintsBuf, q.hdrBuf, q.bodyBuf = q.hintsBuf[:0], q.hdrBuf[:0], q.bodyBuf[:0]

	j := 0
	for i := range q.pend {
		p := &q.pend[i]
		rx := &q.recs[i]
		*rx = p.rec
		q.recPtrs[i] = rx
		if !p.rec.Detected {
			continue
		}

		// Header: CRC-16 over the re-assembled bytes, as in ReceiveWS.
		hdrBits := results[j].Info
		j++
		hStart := len(q.hdrBuf)
		q.hdrBuf = bitutil.AppendBitsToBytes(q.hdrBuf, hdrBits)
		hdrBytes := q.hdrBuf[hStart:]
		if want := p.hdrWant; len(hdrBytes) >= want {
			hdrBytes = hdrBytes[:want]
			crc := uint16(hdrBytes[want-2])<<8 | uint16(hdrBytes[want-1])
			if bitutil.CRC16CCITT(hdrBytes[:want-2]) == crc {
				rx.HeaderOK = true
				rx.Header = hdrBytes[:want-2]
			}
		}

		// Payload: SoftPHY hints, ground-truth errors, CRC-32.
		info, llrs := results[j].Info, results[j].LLR
		j++
		sStart := len(q.hintsBuf)
		for _, l := range llrs {
			q.hintsBuf = append(q.hintsBuf, math.Abs(l))
		}
		rx.Hints = q.hintsBuf[sStart:]
		rx.InfoBitsPerSymbol = p.ibps
		infoRef := q.infoBuf[p.infoOff : p.infoOff+p.payNInfo]
		rx.BitErrors = bitutil.CountBitErrors(info, infoRef)
		rx.TrueBER = float64(rx.BitErrors) / float64(p.payNInfo)
		bStart := len(q.bodyBuf)
		q.bodyBuf = bitutil.AppendBitsToBytes(q.bodyBuf, info)
		body := q.bodyBuf[bStart:]
		if len(body) >= p.bodyLen {
			if payload, ok := bitutil.CheckCRC32(body[:p.bodyLen]); ok {
				rx.PayloadOK = true
				rx.Payload = payload
			}
		}
	}
	q.pend, q.llrBuf, q.infoBuf = q.pend[:0], q.llrBuf[:0], q.infoBuf[:0]
	q.haveMode = false
	return q.recPtrs
}

// QueueDeliver is Deliver's queued form: it samples the channel and runs
// the receiver front end now (consuming the link's noise stream exactly as
// Deliver would) and defers the decodes to the next FlushReceptions on the
// link's workspace. Requires l.WS.
func (l *Link) QueueDeliver(tx *Transmission, start float64, bursts []Burst) {
	if l.WS == nil {
		panic("phy: Link.QueueDeliver requires a Workspace")
	}
	T := l.Cfg.Mode.SymbolTime()
	n := tx.NumSymbols()
	l.WS.gains = growC(l.WS.gains, n)
	l.WS.ivar = growF(l.WS.ivar, n)
	gains, ivar := l.WS.gains, l.WS.ivar
	for j := 0; j < n; j++ {
		t0 := start + float64(j)*T
		gains[j] = l.Model.Gain(t0 + T/2)
		ivar[j] = burstPower(bursts, t0, t0+T)
	}
	l.WS.QueueReceive(l.Cfg, tx, gains, ivar, l.Rng)
}

// FlushDeliveries completes every queued delivery; see FlushReceptions.
func (l *Link) FlushDeliveries() []*Reception {
	if l.WS == nil {
		panic("phy: Link.FlushDeliveries requires a Workspace")
	}
	return l.WS.FlushReceptions()
}
