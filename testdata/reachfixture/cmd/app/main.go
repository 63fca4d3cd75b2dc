// Command app is the fixture's one root.
package main

import "reachfixture/internal/lib"

func main() {
	var r lib.Runner = lib.New(lib.Config{Set: 2, WriteOnly: true})
	r.Run()
	lib.Twin()
}
