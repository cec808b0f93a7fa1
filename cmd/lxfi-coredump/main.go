// Command lxfi-coredump takes, validates, and diffs live dumps of the
// LXFI kernel.
//
//	lxfi-coredump -boot [-o dump.json]   boot the full Fig. 9 system,
//	                                     run an allocator workload on a
//	                                     traced thread, and dump it
//	                                     mid-flight
//	lxfi-coredump -validate dump.json    re-check the dump's invariants
//	                                     layer by layer
//	lxfi-coredump -diff a.json b.json    report the capability delta
//	                                     between two dumps
package main

import (
	"flag"
	"fmt"
	"os"

	"lxfi/internal/annotdb"
	"lxfi/internal/core"
	"lxfi/internal/coredump"
	"lxfi/internal/modules/tmpfssim"
)

func main() {
	boot := flag.Bool("boot", false, "boot the Fig. 9 system, run a workload, dump it")
	validate := flag.Bool("validate", false, "validate the dump file argument")
	diff := flag.Bool("diff", false, "diff the two dump file arguments (before, after)")
	out := flag.String("o", "", "write the -boot dump here instead of stdout")
	flag.Parse()

	var err error
	switch {
	case *boot:
		err = runBoot(*out)
	case *validate:
		if flag.NArg() != 1 {
			err = fmt.Errorf("-validate takes one dump file")
		} else {
			err = runValidate(flag.Arg(0))
		}
	case *diff:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-diff takes two dump files (before, after)")
		} else {
			err = runDiff(flag.Arg(0), flag.Arg(1))
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lxfi-coredump:", err)
		os.Exit(1)
	}
}

// runBoot brings up the full ten-module system with a filesystem
// mounted on top, drives kmalloc/kfree crossings from a scratch module
// on a traced thread, and snapshots the result while an allocation is
// still held — so the dump carries live WRITE capabilities, dirty
// pages, and a populated flight-recorder tail.
func runBoot(out string) error {
	ld, err := annotdb.BootAllLoader(core.Enforce)
	if err != nil {
		return err
	}
	k := ld.BC.K
	defer k.Shutdown()
	k.Sys.EnableTracing()
	th := k.Sys.NewThread("work")
	// The loader brings up the VFS substrate on demand for tmpfssim.
	if _, err := ld.Load(th, "tmpfssim"); err != nil {
		return err
	}
	v := ld.BC.FS
	sb, err := v.Mount(th, tmpfssim.FsID, 0)
	if err != nil {
		return err
	}
	if _, err := v.Create(th, sb, "/core"); err != nil {
		return err
	}
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := v.Write(th, sb, "/core", 0, payload); err != nil {
		return err
	}

	var gKmalloc, gKfree *core.Gate // bound after load
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "scratch",
		Imports:  []string{"kmalloc", "kfree"},
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "churn", Params: []core.Param{core.P("n", "int")},
				Impl: func(th *core.Thread, args []uint64) uint64 {
					for i := uint64(0); i < args[0]; i++ {
						p, err := gKmalloc.Call(th, 64)
						if err != nil || p == 0 {
							return 1
						}
						if _, err := gKfree.Call(th, p); err != nil {
							return 1
						}
					}
					return 0
				},
			},
			{
				Name: "hold", Params: []core.Param{core.P("size", "size_t")},
				Impl: func(th *core.Thread, args []uint64) uint64 {
					p, err := gKmalloc.Call(th, args[0])
					if err != nil {
						return 0
					}
					return p
				},
			},
		},
	})
	if err != nil {
		return err
	}
	gKmalloc, gKfree = m.Gate("kmalloc"), m.Gate("kfree")
	if ret, err := th.CallModule(m, "churn", 64); err != nil || ret != 0 {
		return fmt.Errorf("workload churn failed: ret=%d err=%v", ret, err)
	}
	if p, err := th.CallModule(m, "hold", 128); err != nil || p == 0 {
		return fmt.Errorf("workload hold failed: p=%#x err=%v", p, err)
	}

	d := coredump.Snapshot(k.Sys, coredump.Options{
		Reason:  "lxfi-coredump -boot",
		Threads: []*core.Thread{th},
		VFS:     v,
	})
	enc, err := d.Encode()
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(append(enc, '\n'))
		return err
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d modules, %d threads, epoch %d\n",
		out, len(d.Modules), len(d.Threads), d.Epoch)
	return nil
}

func load(path string) (*coredump.Dump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return coredump.Decode(data)
}

func runValidate(path string) error {
	d, err := load(path)
	if err != nil {
		return err
	}
	issues := coredump.Validate(d)
	if len(issues) == 0 {
		fmt.Printf("%s: ok (%d modules, %d threads, all %d layers clean)\n",
			path, len(d.Modules), len(d.Threads), len(coredump.Layers))
		return nil
	}
	fmt.Print(coredump.FormatIssues(issues))
	return fmt.Errorf("%d invariant(s) violated", len(issues))
}

func runDiff(before, after string) error {
	a, err := load(before)
	if err != nil {
		return err
	}
	b, err := load(after)
	if err != nil {
		return err
	}
	diff := coredump.Compare(a, b)
	fmt.Print(diff.Format())
	if diff.Empty() {
		fmt.Println("no capability changes")
	}
	return nil
}
