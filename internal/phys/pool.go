package phys

import (
	"repro/internal/frameacct"
	"repro/internal/sim"
)

// Hot-path event pools.
//
// Every frame hop used to cost four heap allocations: a delivery
// closure and its Timer, and a tx-done closure and its Timer. At E15
// scale (millions of frame hops) those allocations — and the GC scan
// load of the closures they retain — dominate the profile next to heap
// operations. The records below make the steady state allocation-free:
// each Net keeps free lists of delivery / tx-done / switch-forward
// records whose dispatch closure is built once, when the record is
// first created, and reused for the record's whole life. Scheduling
// goes through the kernel's Do/DoPri fast path, which issues no Timer.
//
// Records are recycled at the top of dispatch (fields copied to locals,
// record pushed back on the free list, then the work runs), so a model
// callback that transmits more frames reuses the very record that
// delivered to it. The pools are per-Net and therefore per-shard: they
// are only touched from their own kernel's event context (or, for
// cross-shard injection, from the coordinator while every shard is
// parked at a barrier), the same single-threaded discipline as the
// rest of the Net's state.

// delivery carries one scheduled frame arrival (local hop or
// cross-shard injection).
type delivery struct {
	n     *Net
	dst   *Port
	f     Frame
	link  *Link
	epoch uint64
	run   func()
}

func (n *Net) newDelivery(dst *Port, f Frame, link *Link, epoch uint64) *delivery {
	var d *delivery
	if m := len(n.delFree); m > 0 {
		d = n.delFree[m-1]
		n.delFree = n.delFree[:m-1]
	} else {
		d = &delivery{n: n}
		d.run = d.dispatch
	}
	d.dst, d.f, d.link, d.epoch = dst, f, link, epoch
	return d
}

func (d *delivery) dispatch() {
	n, dst, f, link, epoch := d.n, d.dst, d.f, d.link, d.epoch
	d.dst, d.f, d.link = nil, Frame{}, nil
	n.delFree = append(n.delFree, d)
	n.CompleteDelivery(dst, f, link, epoch)
}

// ScheduleDelivery queues a pooled frame arrival on this Net's kernel
// at the absolute time arrival, under the wire key (txAt, srcUID). It
// is the shared scheduling path for local hops (Port.startTx) and for
// the parallel engine's cross-shard barrier injection, so both cost zero
// allocations and land in the identical same-instant order.
func (n *Net) ScheduleDelivery(arrival, txAt sim.Time, srcUID uint32, dst *Port, f Frame, link *Link, epoch uint64) {
	d := n.newDelivery(dst, f, link, epoch)
	n.K.DoPri(arrival, txAt, srcUID, d.run)
}

// txDone carries one scheduled transmitter-free event. It is pooled —
// not a single reusable record per port — because two can be in flight
// for one port at once: a link failure clears the FIFO mid-frame and a
// restore lets a new transmission start before the stale completion
// (which the epoch check parries) has fired.
type txDone struct {
	n     *Net
	p     *Port
	link  *Link
	epoch uint64
	run   func()
}

func (n *Net) newTxDone(p *Port, link *Link, epoch uint64) *txDone {
	var t *txDone
	if m := len(n.txFree); m > 0 {
		t = n.txFree[m-1]
		n.txFree = n.txFree[:m-1]
	} else {
		t = &txDone{n: n}
		t.run = t.dispatch
	}
	t.p, t.link, t.epoch = p, link, epoch
	return t
}

func (t *txDone) dispatch() {
	n, p, link, epoch := t.n, t.p, t.link, t.epoch
	t.p, t.link = nil, nil
	n.txFree = append(n.txFree, t)
	if link.epoch != epoch {
		return
	}
	p.popFrame()
	p.startTx()
	if p.onTxDone != nil {
		p.onTxDone()
	}
}

// swForward carries one scheduled switch cut-through forward.
type swForward struct {
	s   *Switch
	out int
	f   Frame
	run func()
}

func (n *Net) newSwForward(s *Switch, out int, f Frame) *swForward {
	var w *swForward
	if m := len(n.swFree); m > 0 {
		w = n.swFree[m-1]
		n.swFree = n.swFree[:m-1]
	} else {
		w = &swForward{}
		w.run = w.dispatch
	}
	w.s, w.out, w.f = s, out, f
	return w
}

func (w *swForward) dispatch() {
	s, out, f := w.s, w.out, w.f
	w.s, w.f = nil, Frame{}
	s.net.swFree = append(s.net.swFree, w)
	s.net.Acct.Exit()
	if s.failed {
		s.net.Acct.Lose(frameacct.LossSwitchDead)
		return
	}
	if out < len(s.ports) && s.ports[out].Up() {
		s.Forwarded++
		s.net.Acct.Relaunch()
		s.ports[out].Send(f)
	} else {
		s.net.Acct.Lose(frameacct.LossEgressDark)
	}
}
