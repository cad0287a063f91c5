(** The translator: guest basic block -> optimized H-ISA block.

    Mirrors the paper's translation-slave pipeline: variable-length guest
    decode, lowering through a MIPS-like IR with the guest registers pinned
    in r8..r15 and the packed flags word in r16, dead-flag elimination,
    the standard optimization passes (when enabled), load hoisting,
    register allocation, and linearization.

    Decode failures and unmapped fetches yield a block whose terminator is
    [T_fault], so executing the address reproduces the guest fault. *)

val guest_pin : Vat_guest.Insn.reg -> Vat_host.Hinsn.reg
(** Hardware register holding a guest register (r8 + index). *)

val translate :
  Config.t -> fetch:(int -> int) -> guest_addr:int -> Block.t
(** [fetch] reads one guest code byte (may raise [Vat_guest.Mem.Fault]). *)

(** Keyed translation memo: reuse blocks across runs. An entry is keyed
    on (address, the config knobs the translator reads) and stores every
    guest byte the translator fetched, as runs of consecutive addresses
    (a superblock skips the bytes it jumps over), plus the address whose
    fetch raised {!Vat_guest.Mem.Fault}, if any. A lookup hits only if
    [fetch] reads every stored byte back unchanged (and faults where it
    faulted), at one [fetch] and compare per byte read; the hit returns
    the exact block a fresh translation would produce, including its
    modelled [translation_cycles]. So one memo may serve any runs — other
    programs, inputs, self-modifying code — on any domains (the table is
    mutex-guarded, entries immutable). A miss replaces the entry. *)
module Memo : sig
  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int
end

val translate_memo :
  ?memo:Memo.t ->
  Config.t ->
  fetch:(int -> int) ->
  page_gen:(page:int -> int) ->
  guest_addr:int ->
  Block.t * (int * int) list
(** Like {!translate}, additionally returning the (page, generation) list
    of the guest pages the block covers — the staleness witness the
    manager checks at install time, read through [page_gen] on every
    call. With a memo, a block whose guest bytes are unchanged is
    reused. *)

val live_out_regs : Vat_host.Hinsn.reg list
(** Registers meaningful at block exit: the pinned guest state and the
    terminator link register. *)
