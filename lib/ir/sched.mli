(** Load-hoisting list scheduler.

    The runtime-execution tile scoreboards loads: a load's latency is
    hidden when independent instructions separate it from its first use.
    This pass list-schedules each straight-line segment (never reordering
    across labels, branches, stores, traps, or the macro-ops) so that
    loads and the address arithmetic feeding them issue as early as
    dependences allow — the paper's "schedule instructions to hide
    functional unit latencies". *)

val hoist_loads : nregs:int -> Lblock.t -> Lblock.t
(** [nregs] bounds the body's registers (see {!Lblock.reg_bound}). *)
