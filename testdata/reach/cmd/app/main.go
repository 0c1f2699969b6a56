package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	c := lib.New()
	c.Add()
	fmt.Println(c)
}
