// Command user is a nested module that imports the outer module's
// internal package through its replace directive.
package main

import (
	"fmt"

	"fix.example/deadexport/internal/lib"
	"fix.example/deadexport/user/internal/extra"
)

func main() {
	fmt.Println(lib.UsedByNested(), extra.Live())
}
