open Vat_host

(* List scheduler over straight-line segments.

   The runtime-execution tile is in-order and single-issue but scoreboards
   loads: a load's latency is hidden exactly when independent instructions
   separate it from its first use. Within each segment (no labels,
   branches, stores, traps, or macro-ops crossed) we therefore reorder so
   that loads — and the address arithmetic feeding them — issue as early
   as dependences allow, pushing consumers later.

   Edges come from the last writer of each register (RAW, WAW) and the
   readers since that write (WAR). Every other pairwise dependence is
   implied by a chain of these, so "all predecessors scheduled" and "some
   load depends on this, transitively" mean the same as over all pairs.
   r0 is the hardwired zero and carries no dependence. *)

let is_barrier (insn : Hinsn.t) =
  match insn with
  | Store _ | Branch _ | Jump _ | Trap _ | Mul64 _ | Div64 _ -> true
  | Load _ | Alu3 _ | Alui _ | Lui _ | Shifti _ | Shiftv _ | Ext _ | Ins _
  | Nop -> false

let is_load (insn : Hinsn.t) = match insn with Load _ -> true | _ -> false

let hoist_loads ~nregs items =
  let n = Array.length items in
  let out = Array.copy items in
  let insn p = match items.(p) with Lblock.I i -> i | L _ -> assert false in
  (* Positions before the current segment's start are stale entries. *)
  let writer = Array.make nregs (-1) and readers = Array.make nregs [] in
  let succs = Array.make n [] and npreds = Array.make n 0 in
  let mark = Array.make n (-1) and rank = Array.make n 2 in
  let s = ref 0 and j = ref 0 in
  let edge i =
    if i >= !s && i <> !j && mark.(i) <> !j then begin
      mark.(i) <- !j;
      succs.(i) <- !j :: succs.(i);
      npreds.(!j) <- npreds.(!j) + 1
    end
  in
  let read () r =
    if r <> Hinsn.r0 then begin
      edge writer.(r);
      readers.(r) <- !j :: readers.(r)
    end
  in
  let write () r =
    if r <> Hinsn.r0 then begin
      edge writer.(r);
      List.iter edge readers.(r);
      writer.(r) <- !j;
      readers.(r) <- []
    end
  in
  let feeds_load d = rank.(d) < 2 in
  let schedule start e =
    s := start;
    for p = start to e - 1 do
      j := p;
      Hinsn.fold_uses read () (insn p);
      Hinsn.fold_defs write () (insn p)
    done;
    (* Rank 0: loads; 1: some load depends on it; 2: the rest. *)
    for i = e - 1 downto start do
      if is_load (insn i) then rank.(i) <- 0
      else if List.exists feeds_load succs.(i) then rank.(i) <- 1
    done;
    (* Each pick: the ready instruction of best rank, first in order —
       the head of the first non-empty ready list (one per rank, kept
       sorted by position). *)
    let ready = Array.make 3 [] in
    let rec insert x = function y :: l when y < x -> y :: insert x l | l -> x :: l in
    let push i = ready.(rank.(i)) <- insert i ready.(rank.(i)) in
    for i = start to e - 1 do
      if npreds.(i) = 0 then push i
    done;
    for slot = start to e - 1 do
      let r = if ready.(0) != [] then 0 else if ready.(1) != [] then 1 else 2 in
      let b = List.hd ready.(r) in
      ready.(r) <- List.tl ready.(r);
      out.(slot) <- items.(b);
      List.iter
        (fun d ->
          npreds.(d) <- npreds.(d) - 1;
          if npreds.(d) = 0 then push d)
        succs.(b)
    done
  in
  (* Segments are maximal runs of non-barriers. A run of one or two keeps
     its order, and so does a run without a load: with every rank equal,
     the first ready instruction is always the next one. *)
  let start = ref 0 and has_load = ref false in
  let flush p =
    if p - !start > 2 && !has_load then schedule !start p;
    start := p + 1;
    has_load := false
  in
  Array.iteri
    (fun p (item : Lblock.item) ->
      match item with
      | L _ -> flush p
      | I i -> if is_barrier i then flush p else if is_load i then has_load := true)
    items;
  flush n;
  out
