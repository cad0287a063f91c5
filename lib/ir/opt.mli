open Vat_host

(** Standard optimization passes over translated-block bodies.

    All passes are semantics-preserving at the guest level: loads and
    stores are never deleted or duplicated (so fault behaviour is intact),
    and internal branches remain forward-only. They run on the
    pre-linearization {!Lblock.t} form, so positions named in branch fields
    are label ids throughout.

    [live_out] is the set of registers meaningful after the block: the
    pinned guest registers plus whatever the terminator reads. *)

val run_all : live_out:Hinsn.reg list -> nregs:int -> Lblock.t -> Lblock.t
(** The pipeline the translator uses when optimization is on: constant
    folding (materialized constants flow into ALU, shift and bitfield
    operations, register forms collapse to immediate forms, branches on
    known conditions become jumps or disappear), copy propagation,
    redundant-load elimination with store-to-load forwarding, copy
    propagation again, dead-code elimination (loads, stores, traps,
    branches and the macro-ops are never removed), peephole cleanups
    (self-moves, zero-shifts, nops), and a final dead-code sweep. Each
    pass is one scan over the body with register-indexed tables; the
    forward passes forget what they know at labels (join points).
    [nregs] bounds the body's registers (see {!Lblock.reg_bound}). *)
