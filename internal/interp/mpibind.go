package interp

import (
	"repro/internal/ftn"
	"repro/internal/mpi"
)

// execCall dispatches CALL statements: MPI bindings first, then user
// subroutines.
func (m *machine) execCall(fr *frame, s *ftn.CallStmt) error {
	switch s.Name {
	case "mpi_init", "mpi_finalize":
		if len(s.Args) == 1 {
			return m.store(fr, s.Args[0], IntVal(0))
		}
		return nil
	case "mpi_comm_rank":
		if len(s.Args) != 3 {
			return rte(s.Pos(), "mpi_comm_rank needs 3 arguments")
		}
		if err := m.store(fr, s.Args[1], IntVal(int64(m.rank.Me()))); err != nil {
			return err
		}
		return m.store(fr, s.Args[2], IntVal(0))
	case "mpi_comm_size":
		if len(s.Args) != 3 {
			return rte(s.Pos(), "mpi_comm_size needs 3 arguments")
		}
		if err := m.store(fr, s.Args[1], IntVal(int64(m.rank.NP()))); err != nil {
			return err
		}
		return m.store(fr, s.Args[2], IntVal(0))
	case "mpi_barrier":
		m.rank.Barrier()
		if len(s.Args) == 2 {
			return m.store(fr, s.Args[1], IntVal(0))
		}
		return nil
	case "mpi_isend", "mpi_irecv":
		return m.execIsendIrecv(fr, s)
	case "mpi_send", "mpi_recv":
		return m.execBlockingSendRecv(fr, s)
	case "mpi_wait":
		return m.execWait(fr, s)
	case "mpi_waitall":
		return m.execWaitall(fr, s)
	case "mpi_alltoall":
		return m.execAlltoall(fr, s)
	case "flush":
		return nil // test helper: a no-op sink
	}
	return m.callUser(fr, s)
}

// bufferArg resolves an MPI buffer argument to (array, linear offset within
// the array's view).
func (m *machine) bufferArg(fr *frame, e ftn.Expr) (*Array, int64, error) {
	switch e := e.(type) {
	case *ftn.Ident:
		a, ok := fr.arr[e.Name]
		if !ok {
			return nil, 0, rte(e.Pos(), "MPI buffer %s is not an array", e.Name)
		}
		return a, 0, nil
	case *ftn.Ref:
		a, ok := fr.arr[e.Name]
		if !ok {
			return nil, 0, rte(e.Pos(), "MPI buffer %s is not an array", e.Name)
		}
		var buf [4]int64
		subs, err := m.evalSubs(fr, e.Args, buf[:0])
		if err != nil {
			return nil, 0, err
		}
		off, err := a.Linear(subs)
		if err != nil {
			return nil, 0, rte(e.Pos(), "%v", err)
		}
		return a, off, nil
	}
	return nil, 0, rte(e.Pos(), "bad MPI buffer argument")
}

// countTypeArgs evaluates the (count, datatype) pair, returning element
// count and element byte size.
func (m *machine) countTypeArgs(fr *frame, countE, typeE ftn.Expr) (int64, int64, error) {
	cv, err := m.evalExpr(fr, countE)
	if err != nil {
		return 0, 0, err
	}
	tv, err := m.evalExpr(fr, typeE)
	if err != nil {
		return 0, 0, err
	}
	bytes, ok := dtypeBytes(tv.AsInt())
	if !ok {
		return 0, 0, rte(typeE.Pos(), "unknown MPI datatype %d", tv.AsInt())
	}
	count := cv.AsInt()
	if count < 0 {
		return 0, 0, rte(countE.Pos(), "negative MPI count %d", count)
	}
	return count, bytes, nil
}

// addReq registers req in the handle table and returns its 1-based handle.
func (m *machine) addReq(req *mpi.Request) int64 {
	m.reqs = append(m.reqs, req)
	return int64(len(m.reqs))
}

// execIsendIrecv handles
// mpi_isend(buf, count, dtype, peer, tag, comm, request, ierr).
func (m *machine) execIsendIrecv(fr *frame, s *ftn.CallStmt) error {
	if len(s.Args) != 8 {
		return rte(s.Pos(), "%s needs 8 arguments", s.Name)
	}
	arr, off, err := m.bufferArg(fr, s.Args[0])
	if err != nil {
		return err
	}
	count, elemBytes, err := m.countTypeArgs(fr, s.Args[1], s.Args[2])
	if err != nil {
		return err
	}
	peerV, err := m.evalExpr(fr, s.Args[3])
	if err != nil {
		return err
	}
	tagV, err := m.evalExpr(fr, s.Args[4])
	if err != nil {
		return err
	}
	peer := int(peerV.AsInt())
	tag := int(tagV.AsInt())
	bytes := count * elemBytes
	var handle int64
	if s.Name == "mpi_isend" {
		req := m.rank.Isend(peer, tag, bytes, func() interface{} {
			p, cerr := arr.CopyOut(off, count)
			if cerr != nil {
				panic(cerr)
			}
			return p
		})
		handle = m.addReq(req)
	} else {
		req := m.rank.Irecv(peer, tag, bytes, func(p interface{}) {
			if cerr := arr.CopyIn(off, p); cerr != nil {
				panic(cerr)
			}
		})
		handle = m.addReq(req)
	}
	if err := m.store(fr, s.Args[6], IntVal(handle)); err != nil {
		return err
	}
	return m.store(fr, s.Args[7], IntVal(0))
}

// execBlockingSendRecv handles
// mpi_send(buf, count, dtype, peer, tag, comm, ierr) and
// mpi_recv(buf, count, dtype, peer, tag, comm, status, ierr).
func (m *machine) execBlockingSendRecv(fr *frame, s *ftn.CallStmt) error {
	want := 7
	if s.Name == "mpi_recv" {
		want = 8
	}
	if len(s.Args) != want {
		return rte(s.Pos(), "%s needs %d arguments", s.Name, want)
	}
	arr, off, err := m.bufferArg(fr, s.Args[0])
	if err != nil {
		return err
	}
	count, elemBytes, err := m.countTypeArgs(fr, s.Args[1], s.Args[2])
	if err != nil {
		return err
	}
	peerV, err := m.evalExpr(fr, s.Args[3])
	if err != nil {
		return err
	}
	tagV, err := m.evalExpr(fr, s.Args[4])
	if err != nil {
		return err
	}
	peer, tag := int(peerV.AsInt()), int(tagV.AsInt())
	bytes := count * elemBytes
	if s.Name == "mpi_send" {
		m.rank.Send(peer, tag, bytes, func() interface{} {
			p, cerr := arr.CopyOut(off, count)
			if cerr != nil {
				panic(cerr)
			}
			return p
		})
		return m.store(fr, s.Args[6], IntVal(0))
	}
	m.rank.Recv(peer, tag, bytes, func(p interface{}) {
		if cerr := arr.CopyIn(off, p); cerr != nil {
			panic(cerr)
		}
	})
	return m.store(fr, s.Args[7], IntVal(0))
}

// execWait handles mpi_wait(request, status, ierr).
func (m *machine) execWait(fr *frame, s *ftn.CallStmt) error {
	if len(s.Args) != 3 {
		return rte(s.Pos(), "mpi_wait needs 3 arguments")
	}
	hv, err := m.evalExpr(fr, s.Args[0])
	if err != nil {
		return err
	}
	if err := m.waitHandle(hv.AsInt(), s.Pos()); err != nil {
		return err
	}
	// Invalidate the handle.
	if err := m.store(fr, s.Args[0], IntVal(0)); err != nil {
		return err
	}
	return m.store(fr, s.Args[2], IntVal(0))
}

// execWaitall handles mpi_waitall(count, requests, statuses, ierr).
func (m *machine) execWaitall(fr *frame, s *ftn.CallStmt) error {
	if len(s.Args) != 4 {
		return rte(s.Pos(), "mpi_waitall needs 4 arguments")
	}
	nv, err := m.evalExpr(fr, s.Args[0])
	if err != nil {
		return err
	}
	arr, off, err := m.bufferArg(fr, s.Args[1])
	if err != nil {
		return err
	}
	n := nv.AsInt()
	for i := int64(0); i < n; i++ {
		h := arr.Store.get(arr.Offset + off + i).AsInt()
		if err := m.waitHandle(h, s.Pos()); err != nil {
			return err
		}
		arr.Store.set(arr.Offset+off+i, IntVal(0))
	}
	return m.store(fr, s.Args[3], IntVal(0))
}

func (m *machine) waitHandle(h int64, pos ftn.Pos) error {
	if h == 0 {
		return nil // null request
	}
	if h < 1 || h > int64(len(m.reqs)) {
		return rte(pos, "invalid MPI request handle %d", h)
	}
	req := m.reqs[h-1]
	if req == nil {
		return nil // already waited
	}
	m.rank.Wait(req)
	m.reqs[h-1] = nil
	return nil
}

// execAlltoall handles mpi_alltoall(sbuf, scount, stype, rbuf, rcount,
// rtype, comm, ierr) with the partition semantics of §3.5: As is divided
// into NP consecutive blocks of scount elements.
func (m *machine) execAlltoall(fr *frame, s *ftn.CallStmt) error {
	if len(s.Args) != 8 {
		return rte(s.Pos(), "mpi_alltoall needs 8 arguments")
	}
	sArr, sOff, err := m.bufferArg(fr, s.Args[0])
	if err != nil {
		return err
	}
	sCount, sBytes, err := m.countTypeArgs(fr, s.Args[1], s.Args[2])
	if err != nil {
		return err
	}
	rArr, rOff, err := m.bufferArg(fr, s.Args[3])
	if err != nil {
		return err
	}
	rCount, _, err := m.countTypeArgs(fr, s.Args[4], s.Args[5])
	if err != nil {
		return err
	}
	var cbErr error
	m.rank.Alltoall(sCount*sBytes,
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
		return rte(s.Pos(), "%v", cbErr)
	}
	return m.store(fr, s.Args[7], IntVal(0))
}

// callUser invokes a user subroutine with Fortran reference semantics.
func (m *machine) callUser(fr *frame, s *ftn.CallStmt) error {
	sub := m.prog.File.Subroutine(s.Name)
	if sub == nil {
		return rte(s.Pos(), "unknown subroutine %s", s.Name)
	}
	if len(s.Args) != len(sub.Params) {
		return rte(s.Pos(), "call to %s with %d args, wants %d", s.Name, len(s.Args), len(sub.Params))
	}
	m.charge(m.costs.CallOver)
	bindScal := map[string]*Value{}
	bindArr := map[string]*Array{}
	// Copy-back temporaries for value expressions passed to scalar dummies.
	for i, arg := range s.Args {
		dummy := sub.Params[i]
		switch a := arg.(type) {
		case *ftn.Ident:
			if arr, ok := fr.arr[a.Name]; ok {
				bindArr[dummy] = arr
				continue
			}
			p, err := m.lookupScalar(fr, a.Name, a.Pos())
			if err != nil {
				return err
			}
			bindScal[dummy] = p // alias: writes are visible to the caller
		case *ftn.Ref:
			if arr, ok := fr.arr[a.Name]; ok {
				var buf [4]int64
				subs, err := m.evalSubs(fr, a.Args, buf[:0])
				if err != nil {
					return err
				}
				off, err := arr.Linear(subs)
				if err != nil {
					return err
				}
				// Sequence association: the callee's dummy views the
				// caller's storage from this element on; the callee's own
				// declaration re-shapes it in newFrame.
				view, err := View(dummy, arr, off, []DimBound{{Lo: 1, Assumed: true}})
				if err != nil {
					return rte(a.Pos(), "%v", err)
				}
				bindArr[dummy] = view
				continue
			}
			v, err := m.evalExpr(fr, arg)
			if err != nil {
				return err
			}
			tmp := v
			bindScal[dummy] = &tmp
		default:
			v, err := m.evalExpr(fr, arg)
			if err != nil {
				return err
			}
			tmp := v
			bindScal[dummy] = &tmp
		}
	}
	nfr, err := m.newFrame(sub, bindScal, bindArr)
	if err != nil {
		return err
	}
	err = m.execStmts(nfr, sub.Body)
	if err == errReturn {
		err = nil
	}
	return err
}
