// Quickstart: boot the simulated kernel, load a module under LXFI, and
// watch the §1 motivating attack fail.
//
// The attack: spin_lock_init writes a zero through its pointer
// argument. A module that may legitimately call it passes the address
// of the current task's uid field, which would make the process root —
// unless the annotation "pre(check(write, lock, 8))" demands that the
// module actually own that memory.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"lxfi"
)

func main() {
	for _, mode := range []lxfi.Mode{lxfi.Off, lxfi.Enforce} {
		fmt.Printf("=== %s kernel ===\n", mode)
		run(mode)
		fmt.Println()
	}
}

func run(mode lxfi.Mode) {
	machine, err := lxfi.Boot(mode)
	if err != nil {
		panic(err)
	}
	k := machine.Kernel
	th := machine.Thread

	// An unprivileged task is running.
	task := k.CreateTask("victim-shell", 1000)
	k.SetCurrent(th, task)

	// Load a module that uses spin_lock_init — legitimately on its own
	// lock, or maliciously on whatever address it is handed. The module
	// calls the kernel through a gate the loader binds for each import.
	var gSpinLockInit *lxfi.Gate // bound after load
	mod, err := k.Sys.LoadModule(lxfi.ModuleSpec{
		Name:     "lockuser",
		Imports:  []string{"spin_lock_init", "kmalloc", "printk"},
		DataSize: 4096,
		Funcs: []lxfi.FuncSpec{{
			Name:   "init_lock",
			Params: []lxfi.Param{lxfi.P("lock", "spinlock_t *")},
			Impl: func(t *lxfi.Thread, args []uint64) uint64 {
				if _, err := gSpinLockInit.Call(t, args[0]); err != nil {
					return 1
				}
				return 0
			},
		}},
	})
	if err != nil {
		panic(err)
	}
	gSpinLockInit = mod.Gate("spin_lock_init")

	// Legitimate use: a lock inside the module's own data section.
	ret, err := th.CallModule(mod, "init_lock", uint64(mod.Data))
	fmt.Printf("  legitimate spin_lock_init on own lock: ret=%d err=%v\n", ret, err)

	// The attack: "initialize" the uid field of the current task.
	uidAddr := k.TaskField(task, "uid")
	ret, _ = th.CallModule(mod, "init_lock", uint64(uidAddr))
	fmt.Printf("  attack on &task->uid: ret=%d, uid is now %d\n", ret, k.TaskUID(task))
	if k.TaskUID(task) == 0 {
		fmt.Println("  -> PRIVILEGE ESCALATION: the shell is root")
	} else {
		fmt.Println("  -> blocked:", k.Sys.Mon.LastViolation())
	}
}
