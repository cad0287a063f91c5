open Vat_host

let mask32 v = v land 0xFFFFFFFF
let r0 = Hinsn.r0

(* Every pass rewrites [items.(0 .. n-1)] in place and returns the new
   length. No pass emits more items than it reads, so the write cursor
   never overtakes the read cursor. Register-indexed tables are sized by
   [nregs]; no pass introduces a register or a label the body did not
   already name. *)

(* ------------------------------------------------------------------ *)
(* Constant folding / propagation                                      *)
(* ------------------------------------------------------------------ *)

let fits_s16 v = v >= -32768 && v <= 32767
let fits_u16 v = v >= 0 && v <= 0xFFFF

(* A single instruction materializing a constant, when one exists. *)
let const_insn rd v : Hinsn.t option =
  let v = mask32 v in
  if v = 0 then Some (Alu3 (Or, rd, r0, r0))
  else if fits_u16 v then Some (Alui (Ori, rd, r0, v))
  else if fits_s16 (v - 0x100000000) then Some (Alui (Addi, rd, r0, v - 0x100000000))
  else if v land 0xFFFF = 0 then Some (Lui (rd, v lsr 16))
  else None

(* [known r] is r's constant (32-bit, so non-negative) or -1. The value
   an instruction computes from known sources, or -1. *)
let folded_value known (insn : Hinsn.t) =
  match insn with
  | Alu3 (op, _, rs, rt) ->
    let a = known rs and b = known rt in
    if a >= 0 && b >= 0 then mask32 (Hexec.eval_alu3 op a b) else -1
  | Alui (op, _, rs, imm) ->
    let a = known rs in
    if a >= 0 then mask32 (Hexec.eval_alui op a imm) else -1
  | Lui (_, imm) -> (imm land 0xFFFF) lsl 16
  | Shifti (op, _, rs, n) ->
    let a = known rs in
    if a >= 0 then mask32 (Hexec.eval_shift op a n) else -1
  | Shiftv (op, _, rs, rc) ->
    let a = known rs and c = known rc in
    if a >= 0 && c >= 0 then mask32 (Hexec.eval_shift op a c) else -1
  | Ext (_, rs, pos, size) ->
    let a = known rs in
    if a >= 0 then mask32 ((a lsr pos) land ((1 lsl size) - 1)) else -1
  | Ins _ | Load _ | Store _ | Branch _ | Jump _ | Mul64 _ | Div64 _ | Trap _
  | Nop -> -1

(* Strength-reduce a form with exactly one known source (both known would
   have folded). Returns [insn] itself when nothing applies. *)
let reduce known (insn : Hinsn.t) : Hinsn.t =
  match insn with
  | Alu3 (Add, rd, rs, rt) ->
    let a = known rs and b = known rt in
    if a >= 0 && fits_s16 a then Alui (Addi, rd, rt, a)
    else if b >= 0 && fits_s16 b then Alui (Addi, rd, rs, b)
    else insn
  | Alu3 (Sub, rd, rs, rt) ->
    let b = known rt in
    if b >= 0 && fits_s16 (-b) then Alui (Addi, rd, rs, -b) else insn
  | Alu3 ((And | Or | Xor) as op, rd, rs, rt) ->
    let to_imm : Hinsn.alui = match op with And -> Andi | Or -> Ori | _ -> Xori in
    let a = known rs and b = known rt in
    if a >= 0 && fits_u16 a then Alui (to_imm, rd, rt, a)
    else if b >= 0 && fits_u16 b then Alui (to_imm, rd, rs, b)
    else insn
  | Shiftv (op, rd, rs, rc) ->
    let c = known rc in
    if c >= 0 then Shifti (op, rd, rs, c land 31) else insn
  | _ -> insn

(* Constants are known while [stamp.(r)] is the current region; a label
   starts a new region, forgetting everything at once. *)
let constant_fold nregs (items : Lblock.t) n =
  let value = Array.make nregs 0 and stamp = Array.make nregs (-1) in
  let region = ref 0 in
  let known r =
    if r = r0 then 0 else if stamp.(r) = !region then value.(r) else -1
  in
  let kill () r = stamp.(r) <- -1 in
  let k = ref 0 in
  let emit item = items.(!k) <- item; incr k in
  for p = 0 to n - 1 do
    match items.(p) with
    | L _ as item ->
      incr region;
      emit item
    | I (Branch (c, rs, rt, target)) as item ->
      let a = known rs and b = known rt in
      if a < 0 || b < 0 then emit item
      else if Hexec.eval_branch c a b then emit (I (Jump target))
      (* else: never taken, deleted *)
    | I insn as item ->
      let v = folded_value known insn in
      if v >= 0 then begin
        let rd = Hinsn.fold_defs (fun _ r -> r) r0 insn in
        emit (match const_insn rd v with Some folded -> I folded | None -> item);
        if rd <> r0 then begin
          stamp.(rd) <- !region;
          value.(rd) <- v
        end
      end
      else begin
        let insn' = reduce known insn in
        Hinsn.fold_defs kill () insn';
        emit (if insn' == insn then item else I insn')
      end
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)
(* ------------------------------------------------------------------ *)

(* Rename the source fields (an [Ins] destination is also read, but is
   left as is). *)
let map_uses f (insn : Hinsn.t) : Hinsn.t =
  match insn with
  | Alu3 (op, rd, rs, rt) -> Alu3 (op, rd, f rs, f rt)
  | Alui (op, rd, rs, imm) -> Alui (op, rd, f rs, imm)
  | Shifti (op, rd, rs, n) -> Shifti (op, rd, f rs, n)
  | Shiftv (op, rd, rs, rc) -> Shiftv (op, rd, f rs, f rc)
  | Ext (rd, rs, p, s) -> Ext (rd, f rs, p, s)
  | Ins (rd, rs, p, s) -> Ins (rd, f rs, p, s)
  | Load (w, rd, base, off) -> Load (w, rd, f base, off)
  | Store (w, rv, base, off) -> Store (w, f rv, f base, off)
  | Branch (c, rs, rt, tgt) -> Branch (c, f rs, f rt, tgt)
  | Mul64 rs -> Mul64 (f rs)
  | Div64 { divisor; signed } -> Div64 { divisor = f divisor; signed }
  | Trap (t, r) -> Trap (t, f r)
  | Lui _ | Jump _ | Nop -> insn

(* [src.(r)] is the register r currently copies (-1: none) and
   [copies.(s)] lists registers recorded as copying s, current while their
   [src] still names s; [live] counts current copies. *)
let copy_propagate nregs (items : Lblock.t) n =
  let src = Array.make nregs (-1) and copies = Array.make nregs [] in
  let live = ref 0 and keys = ref [] in
  let resolve r = let s = src.(r) in if s >= 0 then s else r in
  let has_src b r = b || src.(r) >= 0 in
  let drop k = src.(k) <- -1; decr live in
  let invalidate () r =
    if src.(r) >= 0 then drop r;
    List.iter (fun k -> if src.(k) = r then drop k) copies.(r);
    copies.(r) <- []
  in
  let record rd rs =
    if rd <> r0 && rd <> rs then begin
      src.(rd) <- rs;
      copies.(rs) <- rd :: copies.(rs);
      keys := rd :: !keys;
      incr live
    end
  in
  for p = 0 to n - 1 do
    match items.(p) with
    | L _ ->
      List.iter (fun k -> if src.(k) >= 0 then drop k) !keys;
      keys := []
    | I insn ->
      (* Rename only what has a copy source; with no live copy,
         invalidation is a no-op too. *)
      let insn =
        if !live = 0 then insn
        else begin
          let renamed =
            Hinsn.fold_uses has_src false insn
            || match insn with Branch (_, _, rt, _) -> src.(rt) >= 0 | _ -> false
          in
          let insn = if renamed then map_uses resolve insn else insn in
          if renamed then items.(p) <- I insn;
          Hinsn.fold_defs invalidate () insn;
          insn
        end
      in
      (match insn with
       | Alu3 (Or, rd, rs, rt) when rt = r0 -> record rd rs
       | Alu3 (Or, rd, rs, rt) when rs = r0 -> record rd rt
       | Alu3 (Add, rd, rs, rt) when rt = r0 -> record rd rs
       | Alui ((Addi | Ori), rd, rs, 0) -> record rd rs
       | _ -> ())
  done;
  n

(* ------------------------------------------------------------------ *)
(* Redundant-load elimination / store-to-load forwarding               *)
(* ------------------------------------------------------------------ *)

(* Entries (width, base, offset, register holding the value), one per
   key; the table stays short, since any store may alias any entry and so
   empties it. *)
let forward_loads (items : Lblock.t) n =
  let table = ref [] in
  let same w base off (w', b, o, _) = w' == w && b = base && o = off in
  let clear_reg () r =
    match !table with
    | [] -> ()
    | t -> table := List.filter (fun (_, b, _, v) -> b <> r && v <> r) t
  in
  for p = 0 to n - 1 do
    match items.(p) with
    | L _ -> table := []
    | I (Load (w, rd, base, off)) -> begin
      match List.find_opt (same w base off) !table with
      | Some (_, _, _, src) when src <> rd ->
        clear_reg () rd;
        items.(p) <- I (Alu3 (Or, rd, src, r0))
      | Some _ | None ->
        clear_reg () rd;
        if rd <> base then
          table := (w, base, off, rd) :: List.filter (fun e -> not (same w base off e)) !table
    end
    | I (Store (w, rv, base, off)) ->
      table := (match w with W32 -> [ (w, base, off, rv) ] | W8 | W8s -> [])
    | I insn -> Hinsn.fold_defs clear_reg () insn
  done;
  n

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)
(* ------------------------------------------------------------------ *)

(* Register sets are bitsets of [words nregs] ints. *)
let bits = Sys.int_size
let words nregs = (nregs + bits - 1) / bits
let mem set r = set.(r / bits) land (1 lsl (r mod bits)) <> 0
let add set r = set.(r / bits) <- set.(r / bits) lor (1 lsl (r mod bits))
let remove set r = set.(r / bits) <- set.(r / bits) land lnot (1 lsl (r mod bits))

(* One backward pass: internal branches are forward-only, so every
   label's live-in set is final before any branch to it is reached.
   [live] is the live-out set of the current position. Liveness counts
   the uses of every instruction, including the ones this pass deletes:
   the second sweep in [run_all] collects what the first exposes. *)
let eliminate_dead live_out nregs nlabels (items : Lblock.t) n =
  let w = words nregs in
  let live = Array.copy live_out in
  let at_label = Array.make (nlabels * w) 0 in
  let keep = Bytes.make n '\001' in
  (* Defs are tested against the live-out set, then killed; the fold
     sees each def once, and an instruction's defs are distinct. *)
  let defines = ref false and def_live = ref false in
  let def () r =
    defines := true;
    if mem live r then def_live := true;
    remove live r
  in
  let gen () r = add live r in
  for p = n - 1 downto 0 do
    match items.(p) with
    | L id -> Array.blit live 0 at_label (id * w) w
    | I insn ->
      (match insn with
       | Jump id -> Array.blit at_label (id * w) live 0 w
       | Branch (_, _, _, id) ->
         for i = 0 to w - 1 do
           live.(i) <- live.(i) lor at_label.((id * w) + i)
         done
       | _ -> ());
      defines := false;
      def_live := false;
      Hinsn.fold_defs def () insn;
      if !defines && (not !def_live) && not (Hinsn.has_side_effect insn) then
        Bytes.set keep p '\000';
      Hinsn.fold_uses gen () insn
  done;
  let k = ref 0 in
  for p = 0 to n - 1 do
    if Bytes.get keep p = '\001' then begin
      items.(!k) <- items.(p);
      incr k
    end
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Peephole                                                            *)
(* ------------------------------------------------------------------ *)

let peephole (items : Lblock.t) n =
  let k = ref 0 in
  let emit item = items.(!k) <- item; incr k in
  for p = 0 to n - 1 do
    match items.(p) with
    | I Nop -> ()
    | I (Alu3 ((Or | Add), rd, rs, rt)) when rd = rs && rt = r0 -> ()
    | I (Alui ((Addi | Ori | Xori), rd, rs, 0)) when rd = rs -> ()
    | I (Shifti (_, rd, rs, 0)) when rd = rs -> ()
    | I (Shifti (_, rd, rs, 0)) -> emit (I (Alu3 (Or, rd, rs, r0)))
    | item -> emit item
  done;
  !k

let run_all ~live_out ~nregs items =
  let items = Array.copy items in
  let nregs = List.fold_left (fun b r -> max b (r + 1)) nregs live_out in
  let nlabels = Lblock.label_bound items in
  let live_out =
    let set = Array.make (words nregs) 0 in
    List.iter (add set) live_out;
    set
  in
  let n = Array.length items in
  let n = constant_fold nregs items n in
  let n = copy_propagate nregs items n in
  let n = forward_loads items n in
  let n = copy_propagate nregs items n in
  let n = eliminate_dead live_out nregs nlabels items n in
  let n = peephole items n in
  let n = eliminate_dead live_out nregs nlabels items n in
  Array.sub items 0 n
