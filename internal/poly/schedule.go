package poly

import "repro/internal/core"

// FrozenSchedule snapshots the current layer assignment as an immutable
// random-access core.PeriodicSchedule over edge slots: slot s is happy
// exactly at t ≡ offset (mod period) of its layer, and a vacant slot gets
// period 0, which the schedule never makes happy. The snapshot stays valid
// while the live instance churns on — the serving layer's cache contract.
func (d *Dyn) FrozenSchedule() (*core.PeriodicSchedule, error) {
	periods := make([]int64, len(d.slots))
	offsets := make([]int64, len(d.slots))
	for i := range d.slots {
		s := &d.slots[i]
		if !s.present {
			continue
		}
		l := &d.layers[s.layer]
		periods[i] = l.period
		offsets[i] = l.offset
	}
	return core.NewFixedPeriodic(d.Name(), periods, offsets)
}
