package phy

import (
	"math"
	"slices"
	"sync/atomic"

	"softrate/internal/bitutil"
	"softrate/internal/channel"
	"softrate/internal/coding"
	"softrate/internal/ofdm"
	"softrate/internal/rate"
)

// This file implements the batched receive path. The receiver front end
// runs in two halves. The first half consumes noise variates and runs per
// frame at queue time, in exactly the order of a sequential ReceiveWS
// call: the preamble and postamble estimates, and the noise draws into
// each segment's received tones (appendTones), which the queue keeps. The
// second half, the tail (rxTail.segmentLLRs: equalize, EVM noise
// estimate, exact demap, deinterleave, depuncture), is a pure function of
// those tones and the gains, and so is the BCJR decode after it: both are
// deferred to the flush. There the queued tails run as two halves, the
// second on the coding package's helper goroutine when it is idle (and
// here when it is not), and then the decodes run as one lockstep batch
// through coding.BatchWorkspace, which splits its own phases the same way.
// The split makes the batch path bit-identical to the sequential path on
// the same noise stream, which the tests pin; it exists because the tail
// and the decoder dominate receive cost, the batch decoder runs several
// frames per trellis step, and a flush can use a second core.

// pendRx is one queued reception awaiting its deferred tails and decodes.
type pendRx struct {
	rec      Reception // front-end verdicts: Detected, SNREstDB, PostambleDetected
	hdr, pay segRx
	infoOff  int // ground-truth payload info bits within batchQueue.infoBuf
	hdrWant  int // original header + CRC-16 length, bytes
	bodyLen  int // original payload + CRC-32 length, bytes
	ibps     int // InfoBitsPerSymbol at the payload rate
}

// segRx is one queued segment, header or payload: where its received
// tones and per-symbol gains sit in the queue, and the LLR lattice its
// tail fills and its decode reads.
type segRx struct {
	r      rate.Rate
	ncbps  int // coded bits per OFDM symbol
	tones  int // first tone within batchQueue.tones
	gains  int // first symbol gain within batchQueue.gains
	nTones int
	nSym   int
	llrOff int // lattice within batchQueue.llrBuf, CodedLen(nInfo) entries
	nInfo  int
}

// batchQueue is the Workspace's batched-receive scratch. Everything the
// deferred tails and decodes need outlives the per-frame transmit scratch
// and the caller's gains: queued transmissions are typically
// workspace-aliased and overwritten by the next TransmitWS, so the queue
// keeps the received tones, the gains and the ground-truth bits. All
// buffers are reused across flushes; steady state performs zero heap
// allocations.
type batchQueue struct {
	cw       coding.BatchWorkspace
	pend     []pendRx
	tones    []complex128
	gains    []complex128
	llrBuf   []float64
	infoBuf  []byte
	jobs     []coding.BatchJob
	mode     coding.BCJRMode
	haveMode bool

	// The flush runs pend[:mid]'s tails on tail[0] and the rest on
	// tail[1] (Half); split hands half 1 to the helper goroutine.
	// ReceiveWS runs its tails on tail[0] too.
	tail  [2]rxTail
	mid   int
	split coding.Splitter

	recs     []Reception
	recPtrs  []*Reception
	hintsBuf []float64
	hdrBuf   []byte
	bodyBuf  []byte
}

// tailsHelped counts the flushes whose second half of tails ran on the
// helper goroutine; tests read it.
var tailsHelped atomic.Uint64

// QueueReceive runs the first half of the receiver front end for one
// transmission now — consuming the same noise variates in the same order
// as ReceiveWS — and queues the rest, the tails and the decodes, for the
// next FlushReceptions. All receptions queued between two flushes must
// use the same cfg.Decoder.
//
// The transmission and the gains may be overwritten before the flush:
// everything the deferred work needs is copied out here.
func (ws *Workspace) QueueReceive(cfg Config, tx *Transmission, gains []complex128, ivar []float64, ns NormSource) {
	q := &ws.bq
	var p pendRx
	dataOff := tx.dataSymbolOffset()

	preSNREst := preambleSNREst(cfg, gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols], ns)
	p.rec.SNREstDB = channel.LinearToDB(preSNREst)
	p.rec.Detected = PreambleDetects(gains[:ofdm.PreambleSymbols], ivar[:ofdm.PreambleSymbols])

	if tx.Frame.Postamble {
		off := tx.NumSymbols() - ofdm.PostambleSymbols
		preambleSNREst(cfg, gains[off:], ivar[off:], ns)
		p.rec.PostambleDetected = meanSINR(gains[off:], ivar[off:]) >= DetectSINR
	}

	if p.rec.Detected {
		if !q.haveMode {
			q.mode, q.haveMode = cfg.Decoder, true
		} else if q.mode != cfg.Decoder {
			panic("phy: mixed decoder modes queued in one receive batch")
		}
		p.hdr = q.queueSegment(cfg, headerRate(), tx.hdrSyms, len(tx.hdrInfoBits),
			gains[ofdm.PreambleSymbols:dataOff], ivar[ofdm.PreambleSymbols:dataOff], ns)
		r := tx.Frame.Rate
		p.pay = q.queueSegment(cfg, r, tx.dataSyms, len(tx.infoBits),
			gains[dataOff:dataOff+len(tx.dataSyms)], ivar[dataOff:dataOff+len(tx.dataSyms)], ns)

		p.infoOff = len(q.infoBuf)
		q.infoBuf = append(q.infoBuf, tx.infoBits...)
		p.hdrWant = len(tx.Frame.Header) + 2
		p.bodyLen = len(tx.Frame.Payload) + 4
		p.ibps = cfg.Mode.InfoBitsPerSymbol(r)
	}
	q.pend = append(q.pend, p)
}

// queueSegment draws one segment's received tones into the queue, copies
// its gains, and reserves its LLR lattice.
func (q *batchQueue) queueSegment(cfg Config, r rate.Rate, syms [][]complex128, nInfo int, gains []complex128, ivar []float64, ns NormSource) segRx {
	sg := segRx{r: r, ncbps: cfg.Mode.CodedBitsPerSymbol(r.Scheme), tones: len(q.tones), gains: len(q.gains),
		nSym: len(syms), llrOff: len(q.llrBuf), nInfo: nInfo}
	q.tones = appendTones(q.tones, syms, gains, ivar, ns)
	sg.nTones = len(q.tones) - sg.tones
	q.gains = append(q.gains, gains[:len(syms)]...)
	n := coding.CodedLen(nInfo)
	q.llrBuf = slices.Grow(q.llrBuf, n)[:len(q.llrBuf)+n]
	return sg
}

// lattice returns sg's LLR lattice.
func (q *batchQueue) lattice(sg *segRx) []float64 {
	return q.llrBuf[sg.llrOff : sg.llrOff+coding.CodedLen(sg.nInfo)]
}

// runTail fills sg's lattice from its tones on t.
func (q *batchQueue) runTail(t *rxTail, sg *segRx) {
	t.segmentLLRs(sg.r, sg.ncbps, q.tones[sg.tones:sg.tones+sg.nTones], q.gains[sg.gains:sg.gains+sg.nSym], q.lattice(sg))
}

// Half runs the tails of half h of the queued receptions: pend[:mid] for
// half 0, pend[mid:] for half 1.
func (q *batchQueue) Half(h int) {
	pend := q.pend[:q.mid]
	if h == 1 {
		pend = q.pend[q.mid:]
	}
	for i := range pend {
		if p := &pend[i]; p.rec.Detected {
			q.runTail(&q.tail[h], &p.hdr)
			q.runTail(&q.tail[h], &p.pay)
		}
	}
}

// runTails runs every queued tail: split in two halves of about equal
// work — coded bits — when that leaves work in both, else here.
func (q *batchQueue) runTails() {
	var total int
	for i := range q.pend {
		total += q.pend[i].codedBits()
	}
	q.mid = len(q.pend)
	best := total
	for i, acc := 0, 0; i < len(q.pend); i++ {
		acc += q.pend[i].codedBits()
		if c := max(acc, total-acc); c < best {
			q.mid, best = i+1, c
		}
	}
	if q.mid == len(q.pend) {
		q.Half(0)
	} else if q.split.Split(q) {
		tailsHelped.Add(1)
	}
}

// codedBits is the size of p's tails: the coded bits its segments carry.
func (p *pendRx) codedBits() int {
	if !p.rec.Detected {
		return 0
	}
	return p.hdr.nSym*p.hdr.ncbps + p.pay.nSym*p.pay.ncbps
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
	q.runTails()
	q.jobs = q.jobs[:0]
	for i := range q.pend {
		p := &q.pend[i]
		if !p.rec.Detected {
			continue
		}
		q.jobs = append(q.jobs,
			coding.BatchJob{LLRs: q.lattice(&p.hdr), NInfo: p.hdr.nInfo},
			coding.BatchJob{LLRs: q.lattice(&p.pay), NInfo: p.pay.nInfo})
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
		infoRef := q.infoBuf[p.infoOff : p.infoOff+p.pay.nInfo]
		rx.BitErrors = bitutil.CountBitErrors(info, infoRef)
		rx.TrueBER = float64(rx.BitErrors) / float64(p.pay.nInfo)
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
	q.pend, q.tones, q.gains = q.pend[:0], q.tones[:0], q.gains[:0]
	q.llrBuf, q.infoBuf = q.llrBuf[:0], q.infoBuf[:0]
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
