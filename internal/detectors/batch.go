package detectors

// UpdateBatch feeds obs to det in order, writing the state Update returns
// for obs[i] into states[i], and returns the number of observations it
// consumed: len(obs), or fewer when a Drift ends the run early. It returns
// right after the first Drift, so a ClassAttributor's DriftClasses (and any
// per-drift record the detector keeps) then describes that drift alone.
// Callers loop until the block is consumed. states must have at least
// len(obs) elements.
func UpdateBatch(det Detector, obs []Observation, states []State) int {
	for i := range obs {
		states[i] = det.Update(obs[i])
		if states[i] == Drift {
			return i + 1
		}
	}
	return len(obs)
}
