package prog

// Decode is decode, for the external tests in decode_test.go.
var Decode = decode
