// Command app is the module's only program.
package main

import (
	"fmt"
	"io"

	"fix.example/deadexport"
	"fix.example/deadexport/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	_, err := io.ReadAll(&lib.Src{})
	fmt.Println(lib.T{}.Len(), s.Area(), lib.A, err)
	lib.Used()
	fmt.Println(deadexport.Greet())
}
