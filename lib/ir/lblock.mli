open Vat_host

(** Low-level IR container: a translated block body as an array of H-ISA
    instructions interleaved with label markers.

    Before linearization, branch/jump target fields hold {e label ids};
    {!linearize} resolves them to instruction indexes and drops the
    markers. All internal control flow is forward-only (the translator only
    emits skip-style branches), which every analysis in this library relies
    on; {!linearize} enforces it. The passes never mutate the array they
    are given. *)

type item =
  | L of int          (** label marker *)
  | I of Hinsn.t

type t = item array

exception Malformed of string

val linearize : t -> Hinsn.t array
(** Resolve label ids to instruction indexes. Raises {!Malformed} for an
    undefined or duplicated label, or a backward branch. *)

val insns : t -> Hinsn.t list
(** The instructions without markers (targets still label ids). *)

val reg_bound : t -> int
(** One past the largest register in any register field of the body, and
    at least {!Hinsn.first_vreg}: the size of a register-indexed table. *)

val label_bound : t -> int
(** One past the largest label id the body places or targets: the size of
    a label-indexed table. *)
