// Code generated for the dead-export fixture. DO NOT EDIT.

package lib

// Generated has no caller, but generated code is exempt.
func Generated() {}
