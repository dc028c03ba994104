// Golden fixture for simdeterminism's map-iteration-order check.
// The package path (riflint.test/...) opts into the deep-sim package
// set where the check is active.
package maporder

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appending to "keys" inside a map range`
		keys = append(keys, k)
	}
	return keys
}

func okSortedAfter(m map[string]int) []string {
	var keys []string
	for k := range m { // collect-then-sort is deterministic
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func badPrint(m map[string]int) {
	for k, v := range m { // want `calling fmt\.Println inside a map range`
		fmt.Println(k, v)
	}
}

func badBuilder(m map[string]int) string {
	var out []byte
	for k := range m { // want `appending to "out" inside a map range`
		out = append(out, k...)
	}
	return string(out)
}

func badSchedule(e *sim.Engine, m map[int]func()) {
	for t, fn := range m { // want `calling sim\.Engine\.At inside a map range`
		e.At(sim.Time(t)*sim.Microsecond, fn)
	}
}

func badSend(m map[int]int, ch chan int) {
	for _, v := range m { // want `sending on a channel from inside a map range`
		ch <- v
	}
}

func okAccumulate(m map[string]int) int {
	total := 0
	for _, v := range m { // commutative fold: order-insensitive
		total += v
	}
	return total
}

func okLocalAppend(m map[string][]int) {
	for _, vs := range m { // slice dies inside the iteration
		var local []int
		local = append(local, vs...)
		_ = local
	}
}

func okSliceRange(xs []int, out *[]int) {
	for _, v := range xs { // not a map: slices iterate in order
		*out = append(*out, v)
	}
}

func allowed(m map[string]int) []string {
	var keys []string
	//riflint:allow maporder -- golden test: caller shuffles anyway
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

type block struct{ valid int }

func badArgmin(blocks map[int]*block) int {
	victim, best := -1, 1<<30
	for b, st := range blocks { // want `storing the loop key or value in "victim" under a comparison`
		if n := st.valid; n < best {
			best = n
			victim = b
		}
	}
	return victim
}

func badArgmaxValue(blocks map[int]*block) *block {
	var pick *block
	for _, st := range blocks { // want `storing the loop key or value in "pick" under a comparison`
		if pick == nil || st.valid > pick.valid {
			pick = st
		}
	}
	return pick
}

func okMinReduction(blocks map[int]*block) int {
	best := 1 << 30
	for _, st := range blocks { // the minimum value itself is order-insensitive
		if n := st.valid; n < best {
			best = n
		}
	}
	return best
}

func okKeyedStore(m map[int]int, out []int) {
	for k, v := range m { // each key writes its own slot
		if v > 0 {
			out[k] = v
		}
	}
}
