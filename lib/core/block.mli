open Vat_host

(** A translated code block: the unit of the code caches.

    A block covers one guest basic block (up to a configured instruction
    budget). Its body is linearized, register-allocated H-ISA code; control
    leaves through the typed terminator. Conditions and indirect targets
    are communicated from body code to terminator through the dedicated
    link register {!term_reg}, which register allocation never touches. *)

val term_reg : Hinsn.reg
(** r30. *)

type term =
  | T_jmp of { target : int }
  | T_jcc of { taken : int; fall : int }
      (** Taken iff {!term_reg} is nonzero at block exit. *)
  | T_jind of { kind : ind_kind }
      (** Guest target address is in {!term_reg}. *)
  | T_call of { target : int; ret : int }
  | T_syscall of { next : int }
  | T_fault of string

and ind_kind = K_jump | K_call of int | K_ret
(** [K_call ret] records the fall-through return address (the return
    predictor uses it at translation time). *)

type t = private {
  guest_addr : int;
  guest_len : int;            (** guest bytes covered *)
  guest_insns : int;
  code : Hinsn.t array;       (** hardware registers only *)
  term : term;
  optimized : bool;
  translation_cycles : int;   (** slave occupancy to produce this block *)
  page_lo : int;
  page_hi : int;              (** guest pages covered, for SMC invalidation *)
  checksum : int;
      (** Content checksum computed at translation time; caches and
          messages carry their own copy of the sum, and every consumer
          verifies it before the block may execute (end-to-end
          integrity). *)
  masks : int array;
      (** Per instruction, the register masks the engine's scoreboard
          tests ({!Vat_host.Hinsn.use_mask} and [def_mask]), packed into
          one int; read them with {!use_bits} and {!def_bits}. *)
}

val make :
  guest_addr:int ->
  guest_len:int ->
  guest_insns:int ->
  code:Hinsn.t array ->
  term:term ->
  optimized:bool ->
  translation_cycles:int ->
  page_lo:int ->
  page_hi:int ->
  t
(** The only way to build a block: computes [checksum] and [masks] from
    the content, so no copy can carry masks or a sum of other code.
    [code] must be allocated (hardware registers only). *)

val none : t
(** An empty block at address -1 covering no page: the placeholder where a
    structure needs a block but holds none. It is never run. *)

val use_bits : int -> int
val def_bits : int -> int
(** The use and def masks of one [masks] entry. *)

val checksum_of :
  guest_addr:int -> code:Vat_host.Hinsn.t array -> term:term -> int
(** The checksum a freshly translated block of this content must carry. *)

val recompute_checksum : t -> int
(** Recompute the sum from the block's content (what a verifier compares
    a stored/transmitted sum against). *)

val size_bytes : t -> int
(** Instruction-memory footprint: 4 bytes per instruction plus an 8-byte
    terminator stub. *)

val direct_successors : t -> (int * [ `Taken | `Fall | `Target | `Ret ]) list
(** Statically known successor guest addresses, labelled for the
    speculation engine's prediction heuristics. *)

val pp : Format.formatter -> t -> unit
