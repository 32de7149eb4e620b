package mpiio

// The two-phase round engine (DESIGN.md §13). One loop per direction runs
// the rounds of every planned collective, and the plan's round count alone
// decides what overlaps:
//
//	write:  pack(r) → exchange(r) → [wait(r-1), agree(r-1)] → issue(r)
//	read:   wait(r) → agree(r) → pack(r+1) → exchange(r+1) → issue(r+1)
//	        → replies(r) → scatter(r)
//
// A round's aggregator I/O is issued asynchronously (pfs.WriteVecAsync/
// ReadVAsync) only when there is later work to hide it behind: a write
// round when round r+1's pack/exchange follows (r+1 < rounds), a read round
// when round r-1's reply exchange and scatter follow (r > 0). Every other
// round — the last write round, the first read round, and so the only round
// of a single-round call — runs synchronously through doPF. At most one
// I/O is in flight per rank, so the fault injector's per-rank occurrence
// counters stay in program order (seeded fault runs remain deterministic)
// and the crash-truncate path never races a second write.
//
// Error agreement for a write round is deferred one round: it piggybacks on
// the round r+1 boundary, after round r+1's exchange (which needs no
// agreement to be safe — sparseExchange agrees its counts internally), and
// a drain step agrees the final round. Every rank runs the identical
// collective sequence, so the no-hang and same-error invariants hold, and
// a transient async failure continues its retry schedule at Wait (writes
// are idempotent full rewrites, so nothing is written twice out of order).
// Reads agree in-round, before the reply exchange — a failed aggregator has
// nothing to send back.
//
// Buffer lifetime follows the in-flight-generation pattern: a multi-round
// call keeps two generations of pooled parts/msgs alive, each recycled
// (recycleRound → bufpool.PutAll) only after the owning I/O's Wait, since
// the aggregator's iovec references the received message payloads in
// place. A single-round call allocates only the first generation.

import (
	"pnetcdf/internal/bufpool"
	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// roundBufs is one generation of exchange state: the locally encoded
// per-destination messages and the received blobs of one round.
type roundBufs struct {
	parts [][]byte
	msgs  [][]byte
}

// generations returns the number of round-state generations a plan keeps
// alive: two when a round's I/O can overlap its neighbour, one otherwise.
func generations(plan collectivePlan) int {
	if plan.rounds > 1 {
		return 2
	}
	return 1
}

// pendingWrite is the backend half of a write round whose outcome is not
// yet agreed. wsegs is empty when this rank issued no write; op is nil when
// the write ran synchronously, and err then holds its outcome.
type pendingWrite struct {
	active bool
	g      int   // generation index (r & 1)
	r      int64 // round index
	wsegs  []pfs.Segment
	iov    [][]byte
	op     *pfs.AsyncOp
	err    error
	issued float64 // rank clock at issue time
	bytes  int64
}

// writeRounds runs the write rounds of a planned collective. The returned
// error is already agreed (identical on every rank).
func (f *File) writeRounds(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, buf []byte, myAgg int, prog *ftProgress) error {
	var gens [2]roundBufs
	for g := 0; g < generations(plan); g++ {
		gens[g].parts = make([][]byte, f.comm.Size())
	}
	var scratch []reqSeg
	var entries []writeEntry
	var pend pendingWrite
	// A communicator revocation unwinds this loop as a panic from any of
	// its collectives. Before the failover replays rounds, the in-flight
	// async write must be joined — a background WriteVec racing the replay
	// could interleave stale bytes — and both buffer generations released
	// (PutAll nils slots, so a partially recycled generation is safe to
	// recycle again).
	defer func() {
		if rec := recover(); rec != nil {
			if pend.active && pend.op != nil {
				pend.op.Wait()
			}
			for g := range gens {
				recycleRound(gens[g].parts, gens[g].msgs, f.comm.Rank())
			}
			panic(rec)
		}
	}()

	// finish completes the pending round: join its write if it is in
	// flight (advancing the rank clock and crediting io_overlap_ns), record
	// the agg_write span over its [issue, completion] interval, release its
	// generation, and run its deferred error agreement. Returns the agreed
	// error.
	finish := func() error {
		if !pend.active {
			return nil
		}
		pend.active = false
		roundErr := pend.err
		if pend.op != nil {
			roundErr = f.waitPF(pend.op, pend.issued, func(t float64) (float64, error) {
				return f.pf.WriteVec(t, pend.wsegs, pend.iov)
			})
		}
		if len(pend.wsegs) > 0 {
			// A closed leaf under the open coll_write span, tagged with its
			// round: the round span closed when the exchange did, and an
			// async write's interval overlaps the next round's spans.
			f.sp.Record(span.AggWrite, int(pend.r), pend.issued, f.comm.Clock(), pend.bytes)
		}
		pend.op, pend.wsegs, pend.iov = nil, nil, nil
		recycleRound(gens[pend.g].parts, gens[pend.g].msgs, f.comm.Rank())
		if err := f.comm.AgreeError(roundErr); err != nil {
			return err
		}
		prog.roundAgreed(pend.r)
		return nil
	}

	kill := f.killHook(fault.KillMidExchange)
	for r := int64(0); r < plan.rounds; r++ {
		f.killPoint(fault.KillBeforePack)
		g := int(r & 1)
		// Frontend of round r: pack and exchange while round r-1's write
		// may still be in flight. The round span covers only this frontend.
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		scratch = f.packWriteRound(plan, segs, prefix, spans, buf, r, gens[g].parts, scratch, sPack)
		sPack.End()
		sXchg := f.sp.Begin(span.Exchange)
		gens[g].msgs = sparseExchange(f.comm, gens[g].parts, roundTag(r, 0), kill)
		sXchg.End()
		sRound.End()
		// Deferred boundary: only now settle round r-1's write and agree
		// its outcome. On failure the freshly exchanged round r generation
		// is dead too — every rank bails here together with nothing left
		// in flight.
		if err := finish(); err != nil {
			recycleRound(gens[g].parts, gens[g].msgs, f.comm.Rank())
			return err
		}
		// Backend of round r: decode (the iovec references the message
		// payloads in place — the generation stays live until the write is
		// done) and issue the aggregator write, asynchronously when round
		// r+1's frontend can overlap it.
		pend = pendingWrite{active: true, g: g, r: r, issued: f.comm.Clock()}
		if myAgg >= 0 {
			entries = decodeWriteMsgs(gens[g].msgs, entries[:0])
			if len(entries) > 0 {
				wsegs, iov := assembleWriteVec(entries)
				pend.wsegs, pend.iov = wsegs, iov
				for _, s := range wsegs {
					pend.bytes += s.Len
				}
				if r+1 < plan.rounds {
					pend.op = f.pf.WriteVecAsync(f.comm.Clock(), wsegs, iov)
				} else {
					pend.err = f.doPF(func(t float64) (float64, error) {
						return f.pf.WriteVec(t, wsegs, iov)
					})
				}
				f.killPoint(fault.KillAfterIssue)
			}
		}
	}
	// Drain: agree the last round.
	err := finish()
	if plan.rounds > 1 {
		f.st.Add(iostat.IOPipelinedRounds, plan.rounds)
	}
	return err
}

// pendingRead is the backend half of a read round: its coverage read plus
// everything needed to build and scatter its replies. cov is nil when this
// rank read nothing; op is nil when the read ran synchronously, and err
// then holds its outcome.
type pendingRead struct {
	g         int
	r         int64
	op        *pfs.AsyncOp
	err       error
	issued    float64
	cov       *coverage
	reqsBySrc map[int][]reqSeg
}

// readRounds runs the read rounds of a planned collective with one round of
// aggregator read-ahead: round r+1's coverage read is issued before round
// r's reply exchange and scatter, so it is in flight while they run. The
// returned error is already agreed (identical on every rank).
func (f *File) readRounds(plan collectivePlan, segs []pfs.Segment, prefix []int64,
	spans []segSpan, buf []byte, myAgg int, prog *ftProgress) error {
	var gens [2]roundBufs
	var myReqs, reqBufs [2][][]reqSeg
	for g := 0; g < generations(plan); g++ {
		gens[g].parts = make([][]byte, f.comm.Size())
		myReqs[g] = make([][]reqSeg, f.comm.Size()) // agg rank -> requests, in order
		reqBufs[g] = make([][]reqSeg, plan.naggs)
	}
	replies := make([][]byte, f.comm.Size())
	var pend pendingRead
	// Revocation drain, mirroring writeRounds: join the in-flight
	// read-ahead and release its coverage plus both generations before the
	// failover replays.
	defer func() {
		if rec := recover(); rec != nil {
			if pend.op != nil {
				pend.op.Wait()
			}
			if pend.cov != nil {
				bufpool.Put(pend.cov.data)
			}
			for g := range gens {
				recycleRound(gens[g].parts, gens[g].msgs, f.comm.Rank())
			}
			panic(rec)
		}
	}()

	// frontend packs round r, exchanges its request lists, and issues the
	// aggregator's coverage read — asynchronously from round 1 on, when
	// round r-1's replies and scatter follow to overlap it. The request
	// exchange buffers are released immediately — decodeReadMsgs copies the
	// request segments out — but the myReqs/reqBufs generation survives
	// until round r's scatter.
	kill := f.killHook(fault.KillMidExchange)
	frontend := func(r int64) {
		f.killPoint(fault.KillBeforePack)
		g := int(r & 1)
		sRound := f.sp.Begin(span.Round)
		sRound.SetRound(int(r))
		sPack := f.sp.Begin(span.Pack)
		f.packReadRound(plan, segs, prefix, spans, r, gens[g].parts, myReqs[g], reqBufs[g], sPack)
		sPack.End()
		sXchg := f.sp.Begin(span.Exchange)
		gens[g].msgs = sparseExchange(f.comm, gens[g].parts, roundTag(r, 0), kill)
		sXchg.End()
		sRound.End()
		pend = pendingRead{g: g, r: r, issued: f.comm.Clock()}
		if myAgg >= 0 {
			pend.reqsBySrc = decodeReadMsgs(gens[g].msgs)
			if len(pend.reqsBySrc) > 0 {
				cov := newCoverage(pend.reqsBySrc)
				pend.cov = cov
				if r > 0 {
					pend.op = f.pf.ReadVAsync(f.comm.Clock(), cov.segs, cov.data)
				} else {
					pend.err = f.doPF(func(t float64) (float64, error) {
						return f.pf.ReadV(t, cov.segs, cov.data)
					})
				}
				f.killPoint(fault.KillAfterIssue)
			}
		}
		recycleRound(gens[g].parts, gens[g].msgs, f.comm.Rank())
	}

	// settle takes over the pending round: join its read if it is in
	// flight, record the agg_read span over its [issue, completion]
	// interval, and agree the outcome — BEFORE the reply exchange (a failed
	// aggregator has no data to send back) and before the next read-ahead
	// is issued, so on failure nothing is in flight and every rank returns
	// the same error.
	settle := func() (pendingRead, error) {
		// Waits pend.op itself, not the copy, so nclint's asyncwait sees
		// this closure drain the read-ahead that frontend issued.
		cur := pend
		roundErr := pend.err
		if pend.op != nil {
			roundErr = f.waitPF(pend.op, pend.issued, func(t float64) (float64, error) {
				return f.pf.ReadV(t, cur.cov.segs, cur.cov.data)
			})
		}
		pend = pendingRead{}
		if cur.cov != nil {
			f.sp.Record(span.AggRead, int(cur.r), cur.issued, f.comm.Clock(), int64(len(cur.cov.data)))
		}
		if err := f.comm.AgreeError(roundErr); err != nil {
			if cur.cov != nil {
				bufpool.Put(cur.cov.data)
			}
			return cur, err
		}
		return cur, nil
	}

	// deliver runs a settled round's reply exchange and scatter. Its spans
	// sit under the coll span (the round span closed with the frontend), so
	// they carry their round explicitly.
	deliver := func(cur pendingRead) {
		clear(replies)
		if cur.cov != nil {
			// The replies hold copies: the coverage can go back to the pool
			// before the reply exchange.
			f.buildReplies(cur.cov, cur.reqsBySrc, replies)
			bufpool.Put(cur.cov.data)
		}
		sReply := f.sp.Begin(span.ReplyXchg)
		sReply.SetRound(int(cur.r))
		back := sparseExchange(f.comm, replies, roundTag(cur.r, 1), nil)
		sReply.End()
		sScatter := f.sp.Begin(span.Scatter)
		sScatter.SetRound(int(cur.r))
		scatterReplies(buf, myReqs[cur.g], back)
		sScatter.End()
		recycleRound(replies, back, f.comm.Rank())
		prog.roundAgreed(cur.r)
	}

	frontend(0)
	for r := int64(1); r < plan.rounds; r++ {
		cur, err := settle()
		if err != nil {
			return err
		}
		// Read-ahead: round r's coverage read overlaps round r-1's reply
		// exchange and scatter.
		frontend(r)
		deliver(cur)
	}
	// Drain: the last round has no successor to overlap.
	cur, err := settle()
	if err != nil {
		return err
	}
	deliver(cur)
	if plan.rounds > 1 {
		f.st.Add(iostat.IOPipelinedRounds, plan.rounds)
	}
	return nil
}
