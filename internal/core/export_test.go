package core

// UnseenFDs is unseenFDs, for the FD differential in package core_test,
// which also reaches the enumerated shapes of package autotuner (it
// imports core).
var UnseenFDs = unseenFDs
