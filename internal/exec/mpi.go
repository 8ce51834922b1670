package exec

import (
	"repro/internal/ftn"
	"repro/internal/interp"
	"repro/internal/mpi"
)

// The MPI opcodes' run-time halves. Each reads its operands from the
// registers and array slots named by an mpiDesc and drives the same mpi
// runtime the tree-walker's mpibind uses; argument evaluation, buffer and
// datatype checks, and the ierr/request stores are separate instructions
// lowered in the walker's order.

// addReq registers req and returns its 1-based handle.
func (x *rctx) addReq(req *mpi.Request) int64 {
	x.reqs = append(x.reqs, req)
	return int64(len(x.reqs))
}

func (x *rctx) waitHandle(h int64, pos ftn.Pos) error {
	if h == 0 {
		return nil // null request
	}
	if h < 1 || h > int64(len(x.reqs)) {
		return rte(pos, "invalid MPI request handle %d", h)
	}
	req := x.reqs[h-1]
	if req == nil {
		return nil // already waited
	}
	x.rank.Wait(req)
	x.reqs[h-1] = nil
	return nil
}

// post starts mpi_isend/mpi_irecv and returns the request handle.
func (x *rctx) post(send bool, fr *frame, regs []interp.Value, d *mpiDesc) int64 {
	arr, off, count := fr.arr[d.buf], regs[d.off].AsInt(), regs[d.count].AsInt()
	peer, tag := int(regs[d.peer].AsInt()), int(regs[d.tag].AsInt())
	bytes := count * regs[d.elem].I
	if send {
		return x.addReq(x.rank.Isend(peer, tag, bytes, func() interface{} {
			p, cerr := arr.CopyOut(off, count)
			if cerr != nil {
				panic(cerr)
			}
			return p
		}))
	}
	return x.addReq(x.rank.Irecv(peer, tag, bytes, func(p interface{}) {
		if cerr := arr.CopyIn(off, p); cerr != nil {
			panic(cerr)
		}
	}))
}

// transfer runs a blocking mpi_send/mpi_recv.
func (x *rctx) transfer(send bool, fr *frame, regs []interp.Value, d *mpiDesc) {
	arr, off, count := fr.arr[d.buf], regs[d.off].AsInt(), regs[d.count].AsInt()
	peer, tag := int(regs[d.peer].AsInt()), int(regs[d.tag].AsInt())
	bytes := count * regs[d.elem].I
	if send {
		x.rank.Send(peer, tag, bytes, func() interface{} {
			p, cerr := arr.CopyOut(off, count)
			if cerr != nil {
				panic(cerr)
			}
			return p
		})
		return
	}
	x.rank.Recv(peer, tag, bytes, func(p interface{}) {
		if cerr := arr.CopyIn(off, p); cerr != nil {
			panic(cerr)
		}
	})
}

// waitall completes the count handles stored from the buffer's offset on,
// nulling each one.
func (x *rctx) waitall(fr *frame, regs []interp.Value, d *mpiDesc) error {
	arr, off, n := fr.arr[d.buf], regs[d.off].AsInt(), regs[d.count].AsInt()
	for i := int64(0); i < n; i++ {
		if err := x.waitHandle(arr.RawGet(off+i).AsInt(), d.pos); err != nil {
			return err
		}
		arr.RawSet(off+i, interp.IntVal(0))
	}
	return nil
}

// alltoall runs mpi_alltoall with the §3.5 partition semantics: the send
// buffer is NP consecutive blocks of the send count.
func (x *rctx) alltoall(fr *frame, regs []interp.Value, d *mpiDesc) error {
	sArr, sOff, sCount := fr.arr[d.buf], regs[d.off].AsInt(), regs[d.count].AsInt()
	rArr, rOff, rCount := fr.arr[d.rbuf], regs[d.roff].AsInt(), regs[d.rcount].AsInt()
	var cbErr error
	x.rank.Alltoall(sCount*regs[d.elem].I,
		func(dst int) interface{} {
			p, cerr := sArr.CopyOut(sOff+int64(dst)*sCount, sCount)
			if cerr != nil && cbErr == nil {
				cbErr = cerr
			}
			return p
		},
		func(src int, p interface{}) {
			if cerr := rArr.CopyIn(rOff+int64(src)*rCount, p); cerr != nil && cbErr == nil {
				cbErr = cerr
			}
		})
	if cbErr != nil {
		return rte(d.pos, "%v", cbErr)
	}
	return nil
}
