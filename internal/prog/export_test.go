package prog

// Decode is decode, for the external tests in decode_test.go.
var Decode = decode

// Get returns the word at addr and whether it is present.
func (im *Image) Get(addr int64) (v uint64, ok bool) {
	if addr < 0 || addr%WordSize != 0 || im.dense == nil {
		return 0, false
	}
	w := addr / WordSize
	k, in := im.locate(w)
	if in {
		r := &im.reps[k]
		return r.period[(w-r.start)%int64(len(r.period))], true
	}
	d := &im.dense[k]
	i := w - d.base
	if i < 0 || i >= int64(len(d.words)) || d.set[i/64]&(1<<(i%64)) == 0 {
		return 0, false
	}
	return d.words[i], true
}
