package netperf

// StrictRig: the Guideline-4 ablation counterpart to Rig. The driver
// implements the redesigned ndo_start_xmit_strict interface
// (REF(sk_buff fields) + payload WRITE instead of whole-struct WRITE),
// so the same transmit workload can be benchmarked under both interface
// designs.

import (
	"fmt"

	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/netstack"
)

// StrictRig is a transmit bench rig over the strict interface.
type StrictRig struct {
	K     *kernel.Kernel
	Stack *netstack.Stack
	Th    *core.Thread
	Dev   mem.Addr
	Sent  uint64
}

// NewStrictRig boots a minimal strict driver.
func NewStrictRig(mode core.Mode) (*StrictRig, error) {
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	st := netstack.Init(k)
	st.StrictInit()
	th := k.Sys.NewThread("strict")
	r := &StrictRig{K: k, Stack: st, Th: th}

	imports := append([]string{"alloc_etherdev", "register_netdev"}, netstack.StrictImports...)
	var gSetLen, gFree, gAllocDev, gRegister *core.Gate // bound after load
	m, err := k.Sys.LoadModule(core.ModuleSpec{
		Name:     "e1000-strict",
		Imports:  imports,
		DataSize: 4096,
		Funcs: []core.FuncSpec{
			{
				Name: "xmit", Type: netstack.NdoStartXmitStrict,
				Impl: func(t *core.Thread, args []uint64) uint64 {
					skb := mem.Addr(args[0])
					data, _ := t.ReadU64(st.SkbField(skb, "head"))
					// Touch the payload (owned) and update the length via
					// the checked accessor instead of a raw header store.
					if err := t.WriteU8(mem.Addr(data), 0x1); err != nil {
						return ^uint64(0)
					}
					if ret, err := gSetLen.Call(t, uint64(skb), 60); err != nil || kernel.IsErr(ret) {
						return ^uint64(0)
					}
					r.Sent++
					if _, err := gFree.Call(t, uint64(skb)); err != nil {
						return ^uint64(0)
					}
					return 0
				},
			},
			{
				Name: "setup",
				Impl: func(t *core.Thread, args []uint64) uint64 {
					dev, err := gAllocDev.Call(t)
					if err != nil || dev == 0 {
						return 1
					}
					r.Dev = mem.Addr(dev)
					mod := t.CurrentModule()
					if err := t.WriteU64(st.OpsSlot(mod.Data, "ndo_start_xmit"), uint64(mod.Funcs["xmit"].Addr)); err != nil {
						return 2
					}
					if err := t.WriteU64(st.DevField(r.Dev, "ops"), uint64(mod.Data)); err != nil {
						return 3
					}
					if ret, err := gRegister.Call(t, dev); err != nil || kernel.IsErr(ret) {
						return 4
					}
					return 0
				},
			},
		},
	})
	if err != nil {
		return nil, err
	}
	gSetLen, gFree = m.Gate("skb_set_len"), m.Gate("kfree_skb_strict")
	gAllocDev, gRegister = m.Gate("alloc_etherdev"), m.Gate("register_netdev")
	if ret, err := th.CallModule(m, "setup"); err != nil || ret != 0 {
		return nil, fmt.Errorf("netperf: strict setup failed: ret=%d err=%v", ret, err)
	}
	return r, nil
}

// TxPacket pushes one packet through the strict transmit path.
func (r *StrictRig) TxPacket(payload uint64) error {
	skb, err := r.Stack.AllocSkb(payload)
	if err != nil {
		return err
	}
	if err := r.K.Sys.AS.WriteU64(r.Stack.SkbField(skb, "len"), payload); err != nil {
		return err
	}
	ret, err := r.Stack.XmitSkbStrict(r.Th, r.Dev, skb)
	if err != nil {
		return err
	}
	if ret != 0 {
		return fmt.Errorf("netperf: strict xmit returned %d", int64(ret))
	}
	return nil
}
