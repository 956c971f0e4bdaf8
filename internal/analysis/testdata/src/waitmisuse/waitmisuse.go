// Package waitmisusefix holds golden cases for the waitmisuse analyzer:
// the two WaitGroup placement disciplines — Add before the launch (with
// the hierarchical exemption) and deferred Done. Wait under a lock is
// lockedsend's (its fixture holds those cases).
package waitmisusefix

import "sync"

type pool struct {
	wg sync.WaitGroup
}

// addInsideGoroutine is the classic self-registration race: the owner's
// Wait can observe zero before the goroutine adds itself.
func addInsideGoroutine(wg *sync.WaitGroup, work func()) {
	go func() {
		wg.Add(1) // want "WaitGroup\.Add inside the spawned goroutine races with Wait"
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// hierarchicalAdd is exempt: the accept-loop goroutine was registered by
// the spawner's Add, so it holds a counter unit while adding children.
func (p *pool) hierarchicalAdd(accept func() (func(), bool)) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			job, ok := accept()
			if !ok {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				job()
			}()
		}
	}()
}

// plainDone is one panic away from a stuck Wait.
func plainDone(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	go func() {
		work()
		wg.Done() // want "WaitGroup\.Done as a plain statement"
	}()
}

// deferredDone is the required placement.
func deferredDone(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
}
