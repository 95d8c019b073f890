package core

import "hlfi/internal/telemetry"

// Resolution is one cell job and its outcome. The study driver hands
// it to a Resolver and to its Executor, so a cell's record, checkpoint
// lines, warehouse entries and event are the same whichever executor
// ran it.
type Resolution struct {
	CellKey
	// Target and Base are the record's (activated-target, adaptive-base)
	// identity (see CellStore); Prior is an extension's round-1 record.
	Target, Base int
	Prior        *CellResult

	// Res or Skip is the outcome; a Skip abandons an extension, which
	// keeps Prior. Resumed and Warehoused say where Lookup found it;
	// neither means the cell ran, and Metrics holds its campaign's
	// timing and per-attempt records (zero for a fleet job).
	Res                 *CellResult
	Skip                *CheckpointSkip
	Resumed, Warehoused bool
	Metrics             CellMetrics
}

// Abandoned reports an extension that ended in a skip: a soft skip or,
// on the fleet, an exhausted retry budget.
func (r *Resolution) Abandoned() bool { return r.Prior != nil && r.Skip != nil }

// Kept is the record the cell keeps after the resolution: an abandoned
// extension keeps its round-1 record, any other resolution its outcome.
func (r *Resolution) Kept() (*CellResult, *CheckpointSkip) {
	if r.Abandoned() {
		return r.Prior, nil
	}
	return r.Res, r.Skip
}

// Resolver is the one rule for how a study cell resolves: where a
// record is looked up before the cell runs, what a resolution writes to
// the checkpoint and the warehouse, and (Resolution.Event) the event
// that announces it. No warehouse is a nil interface, not a typed nil.
type Resolver struct {
	Resume     *CheckpointState
	Warehouse  CellStore
	Checkpoint *CheckpointWriter
}

// Lookup resolves r without running it and reports whether it did. A
// round-1 cell reads the resume state first, then the warehouse at its
// (Target, Base). An extension reads the resume state's abandonment of
// it, then accepts only a cached record.
func (rv Resolver) Lookup(r *Resolution) bool {
	if rv.Resume != nil && r.Prior == nil {
		res, ok := rv.Resume.Cells[r.CellKey]
		if skip, skipped := rv.Resume.Skips[r.CellKey]; skipped && !ok {
			r.Skip, ok = &skip, true
		}
		if ok {
			r.Res, r.Resumed = res, true
			return true
		}
	} else if rv.Resume != nil {
		if a, ok := rv.Resume.abandoned[r.CellKey]; ok && a.Target == r.Target && a.Base == r.Base {
			r.Skip, r.Resumed = a.CheckpointSkip, true
			return true
		}
	}
	if rv.Warehouse != nil {
		if res, skip, ok := rv.Warehouse.Lookup(r.CellKey, r.Target, r.Base); ok && (res != nil || r.Prior == nil) {
			r.Res, r.Skip, r.Warehoused = res, skip, true
			return true
		}
	}
	return false
}

// Commit makes a resolution durable. An executed outcome is appended to
// the checkpoint, then stored in the warehouse at its (Target, Base); a
// warehouse hit is appended only, since -resume reads the checkpoint.
// A resumed record writes nothing. An abandoned extension appends its
// skip tagged with its (Target, Base) and is never stored: the cell
// keeps its round-1 record, and a resumed study finds the abandonment.
// Only a failed append is returned: warehouse failures degrade to
// dropped stores.
func (rv Resolver) Commit(r *Resolution) error {
	switch {
	case r.Resumed:
		return nil
	case r.Abandoned():
		return rv.Checkpoint.append(checkpointLine{Type: "skip", CellKey: r.CellKey, CheckpointSkip: r.Skip,
			Target: r.Target, Base: r.Base})
	}
	if r.Res != nil {
		if err := rv.Checkpoint.Cell(r.CellKey, r.Res); err != nil || r.Warehoused || rv.Warehouse == nil {
			return err
		}
		rv.Warehouse.StoreCell(r.CellKey, r.Target, r.Base, r.Res)
		return nil
	}
	if err := rv.Checkpoint.Skip(r.CellKey, *r.Skip); err != nil || r.Warehoused || rv.Warehouse == nil {
		return err
	}
	// StoreSkip keeps only the kinds that are pure functions of the cell.
	rv.Warehouse.StoreSkip(r.CellKey, r.Target, r.Base, *r.Skip)
	return nil
}

// Event is the telemetry event announcing the resolution: warehouse_hit
// or cell_resume for a record found by Lookup, cell_done for an executed
// round-1 cell, cell_extend for an extension (delta counts, or just the
// error when abandoned), and cell_skip or cell_deadline for a skip.
func (r *Resolution) Event() telemetry.Event {
	m := r.Metrics
	dur, scan := telemetry.Ms(m.ScanTime+m.RunTime), telemetry.Ms(m.ScanTime)
	switch {
	case r.Abandoned():
		ev := KeyEvent(telemetry.EventCellExtend, r.CellKey)
		ev.Err = r.Skip.Err
		return ev
	case r.Res != nil && r.Warehoused:
		return CellEvent(telemetry.EventWarehouseHit, r.CellKey, r.Res)
	case r.Res != nil && r.Resumed:
		ev := CellEvent(telemetry.EventCellResume, r.CellKey, r.Res)
		// cell_resume carries the counts only.
		ev.AdaptiveTarget, ev.AdaptiveConverged = 0, false
		return ev
	case r.Res != nil && r.Prior != nil:
		// Delta counts keep the telemetry aggregator additive: cell_done
		// totals plus cell_extend totals equal the final study totals.
		p, n := r.Prior, r.Res
		ev := CellEvent(telemetry.EventCellExtend, r.CellKey, &CellResult{
			Benign: n.Benign - p.Benign, SDC: n.SDC - p.SDC, Crash: n.Crash - p.Crash, Hang: n.Hang - p.Hang,
			NotActivated: n.NotActivated - p.NotActivated, Attempts: n.Attempts - p.Attempts,
			SimFaults: n.SimFaults - p.SimFaults, Adaptive: n.Adaptive,
		})
		ev.DurationMS, ev.ScanMS = dur, scan
		return ev
	case r.Res != nil:
		ev := CellEvent(telemetry.EventCellDone, r.CellKey, r.Res)
		ev.DurationMS, ev.ScanMS = dur, scan
		if r.Res.Attempts > 0 {
			ev.ActivationRate = float64(r.Res.Activated()) / float64(r.Res.Attempts)
		}
		return ev
	}
	ev := KeyEvent(telemetry.EventCellSkip, r.CellKey)
	if k := r.Skip.Kind; k == SkipDeadline || k == SkipFleet {
		ev.Type, ev.DurationMS, ev.ScanMS = telemetry.EventCellDeadline, dur, scan
	}
	ev.Err = r.Skip.Err
	return ev
}
