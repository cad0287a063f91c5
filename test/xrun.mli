open Vat_guest
open Vat_core

(** Untimed functional execution of translated code.

    Runs a guest program through the translator and a plain H-ISA dispatch
    loop with no timing model — the functional half of the DBT, used to
    check translation correctness against the reference interpreter and as
    a fast path in tests. Blocks are reused through a private
    {!Translate.Memo}, which retranslates any block whose guest bytes
    changed, so self-modifying code is handled. *)

type outcome =
  | Exited of int
  | Fault of string
  | Out_of_fuel

type t

val create : ?input:string -> Config.t -> Program.t -> t

val run : fuel:int -> t -> outcome
(** [fuel] bounds executed guest instructions (approximately: blocks are
    charged on entry). *)

val output : t -> string
val guest_reg : t -> Insn.reg -> int
val flags : t -> int

val digest : t -> int
(** {!Vat_guest.Interp.state_digest} of the guest state, as
    {!Vat_guest.Interp.digest} computes it: a finished [Xrun] of a program
    must produce the same digest as a finished interpreter run. *)
