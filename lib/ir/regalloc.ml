open Vat_host

let scratch_base_reg = 26
let shuttle_regs = (27, 28)

exception Alloc_error of string

let is_vreg r = r >= Hinsn.first_vreg

(* Live intervals, [first.(v), last.(v)] in item positions (labels count),
   and the vregs in allocation order. Forward-only internal branches make
   the intervals exact. The order is by start. Vregs can start together
   only when one is read before any write (as in unreachable code after a
   folded branch); they then come in the order a [Hashtbl.fold] over a
   vreg-keyed table, filled in first-touch order, lists them: by
   descending bucket, then first touch. The translator's output depends
   on it (test/test_golden.ml). *)
let intervals (items : Lblock.t) nregs =
  let first = Array.make nregs (-1) and last = Array.make nregs (-1) in
  let touched = ref [] and pos = ref 0 and ties = ref false in
  let touch () r =
    if is_vreg r then begin
      if first.(r) < 0 then begin
        (match !touched with v :: _ when first.(v) = !pos -> ties := true | _ -> ());
        first.(r) <- !pos;
        touched := r :: !touched
      end;
      last.(r) <- !pos
    end
  in
  Array.iteri
    (fun p (item : Lblock.item) ->
      match item with
      | L _ -> ()
      | I insn ->
        pos := p;
        Hinsn.fold_defs touch () insn;
        Hinsn.fold_uses touch () insn)
    items;
  let order = Array.of_list (List.rev !touched) in
  if !ties then begin
    (* The table has 32 buckets, doubled while it holds over two per bucket. *)
    let buckets = ref 32 in
    while Array.length order > 2 * !buckets do buckets := 2 * !buckets done;
    let bucket v = Hashtbl.hash v land (!buckets - 1) in
    Array.stable_sort
      (fun a b ->
        if first.(a) <> first.(b) then compare first.(a) first.(b)
        else compare (bucket b) (bucket a))
      order
  end;
  (first, last, order)

(* One linear-scan attempt: [Ok mapping] (vreg -> hardware register,
   -1 if none) or [Error vregs_to_spill]. [active] holds (vreg, last,
   register), newest first; expired registers are pushed on the free list
   in that order. *)
let try_assign ~nregs (items : Lblock.t) =
  let first, last, order = intervals items nregs in
  let free = ref Hinsn.temp_regs and active = ref [] in
  let mapping = Array.make nregs (-1) and spills = ref [] in
  Array.iter
    (fun v ->
      let first = first.(v) and last = last.(v) in
      (* Expire intervals that ended before this one starts. *)
      if List.exists (fun (_, l, _) -> l < first) !active then begin
        let expired, still = List.partition (fun (_, l, _) -> l < first) !active in
        List.iter (fun (_, _, hw) -> free := hw :: !free) expired;
        active := still
      end;
      match !free with
      | hw :: rest ->
        free := rest;
        mapping.(v) <- hw;
        active := (v, last, hw) :: !active
      | [] ->
        (* Spill the interval with the furthest end (this one or an active
           one; ties to this one, then the newest). Spilling an active
           interval frees its register. *)
        let victim, _, hw =
          List.fold_left
            (fun ((_, bl, _) as best) ((_, l, _) as cand) -> if l > bl then cand else best)
            (v, last, -1) !active
        in
        spills := victim :: !spills;
        if victim <> v then begin
          mapping.(victim) <- -1;
          mapping.(v) <- hw;
          active := (v, last, hw) :: List.filter (fun (r, _, _) -> r <> victim) !active
        end)
    order;
  match !spills with [] -> Ok mapping | spills -> Error spills

(* Rewrite spilled vregs into loads/stores around each instruction. The
   spilled sources take the shuttles in register order; a spilled
   destination that is not also a source goes through the first one. *)
let rewrite_spills ~nregs spilled (items : Lblock.t) =
  let slot = Array.make nregs (-1) in
  List.iteri (fun i v -> slot.(v) <- i * 4) spilled;
  let is_spilled r = slot.(r) >= 0 in
  let s1, s2 = shuttle_regs in
  let rewrite (item : Lblock.item) : Lblock.item list =
    match item with
    | L _ -> [ item ]
    | I insn ->
      let uses = List.filter is_spilled (Hinsn.uses insn) in
      let defs = List.filter is_spilled (Hinsn.defs insn) in
      if uses = [] && defs = [] then [ item ]
      else begin
        let assign =
          match List.sort_uniq compare uses with
          | [] -> []
          | [ a ] -> [ (a, s1) ]
          | [ a; b ] -> [ (a, s1); (b, s2) ]
          | _ -> raise (Alloc_error "more than two spilled sources")
        in
        let rename r =
          if not (is_spilled r) then r
          else match List.assoc_opt r assign with Some s -> s | None -> s1
        in
        let pre =
          List.map
            (fun (v, s) -> Lblock.I (Hinsn.Load (W32, s, scratch_base_reg, slot.(v))))
            assign
        in
        let post =
          List.map
            (fun v -> Lblock.I (Hinsn.Store (W32, rename v, scratch_base_reg, slot.(v))))
            defs
        in
        pre @ [ Lblock.I (Hinsn.map_regs rename insn) ] @ post
      end
  in
  Array.of_list (List.concat_map rewrite (Array.to_list items))

let rec allocate ~nregs (items : Lblock.t) =
  match try_assign ~nregs items with
  | Ok mapping ->
    let rename r =
      if not (is_vreg r) then r
      else
        let hw = mapping.(r) in
        if hw < 0 then raise (Alloc_error (Printf.sprintf "unmapped vreg %d" r));
        hw
    in
    Array.map
      (fun (item : Lblock.item) ->
        match item with
        | L _ -> item
        | I insn -> Lblock.I (Hinsn.map_regs rename insn))
      items
  | Error spills ->
    (* Spilling renames vregs to hardware shuttles: [nregs] still bounds. *)
    allocate ~nregs (rewrite_spills ~nregs (List.sort_uniq compare spills) items)
