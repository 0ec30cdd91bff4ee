package core

// LiveAnds exposes liveAnds to the external test package, which can import
// the differential harness (it depends on this package through the facade).
var LiveAnds = liveAnds
