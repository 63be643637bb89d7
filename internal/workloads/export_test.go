package workloads

// WorkersAt returns how many of the given hardware contexts the
// workload's dominant parallel loops occupy: min(threads,
// ParCap × max(1, threads/8)).
func (w Workload) WorkersAt(threads int) int {
	if w.ParCap == 0 {
		return threads
	}
	groups := threads / 8
	if groups < 1 {
		groups = 1
	}
	n := w.ParCap * groups
	if n > threads {
		n = threads
	}
	return n
}
