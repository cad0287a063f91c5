open Vat_host

type item =
  | L of int
  | I of Hinsn.t

type t = item array

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let insns t =
  Array.fold_right (fun item acc -> match item with I i -> i :: acc | L _ -> acc) t []

let reg_bound t =
  let see b r = if r >= b then r + 1 else b in
  Array.fold_left
    (fun b item ->
      match item with
      | L _ -> b
      | I (Hinsn.Branch (_, rs, rt, _)) ->
        (* A unary branch's ignored [rt] is still a register field. *)
        see (see b rs) rt
      | I insn -> Hinsn.fold_uses see (Hinsn.fold_defs see b insn) insn)
    Hinsn.first_vreg t

let label_bound t =
  Array.fold_left
    (fun b item ->
      match item with
      | L id | I (Hinsn.Jump id) | I (Hinsn.Branch (_, _, _, id)) -> max b (id + 1)
      | I _ -> b)
    0 t

let linearize t =
  (* Label id -> instruction index (index of the next real insn). *)
  let labels = Array.make (label_bound t) (-1) in
  let total = ref 0 in
  Array.iter
    (function
      | L id ->
        if labels.(id) >= 0 then malformed "duplicate label %d" id;
        labels.(id) <- !total
      | I _ -> incr total)
    t;
  let total = !total in
  let resolve pos id =
    let target = labels.(id) in
    if target < 0 then malformed "undefined label %d" id;
    if target <= pos then malformed "backward branch to label %d" id;
    (* A branch to the block end is a fall-through; clamp to total. *)
    min target total
  in
  let out = Array.make total Hinsn.Nop in
  let idx = ref 0 in
  Array.iter
    (function
      | L _ -> ()
      | I insn ->
        out.(!idx) <-
          (if Hinsn.is_branch insn then Hinsn.map_target (resolve !idx) insn
           else insn);
        incr idx)
    t;
  out
