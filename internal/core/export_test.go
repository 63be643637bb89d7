package core

// Assignment returns each thread's current cluster GID in thread-id
// order.
func (s *Simulator) Assignment() []int {
	out := make([]int, len(s.threads))
	for i, t := range s.threads {
		out[i] = t.cluster.gid
	}
	return out
}
