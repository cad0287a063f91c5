(* IR-layer tests: the optimizer and scheduler must preserve semantics on
   randomly generated bodies; register allocation must eliminate virtual
   registers; linearization must enforce the forward-branch invariant. *)

open Vat_host
open Vat_ir

(* --- Random straight-line bodies over virtual registers --------------- *)

module G = struct
  open QCheck.Gen

  (* Generation is def-use threaded: a source register is always either a
     pinned input (r8..r12) or a virtual register defined earlier, so the
     body's meaning never depends on allocation leftovers. *)
  let pinned = List.init 5 (fun i -> 8 + i)

  let src defined = oneofl (defined @ pinned)

  let body_insn defined : Hinsn.t t =
    let open Hinsn in
    let fresh = first_vreg + List.length defined in
    let rd = oneofl (fresh :: defined) in
    frequency
      [ (5,
         let* op = oneofl [ Add; Sub; And; Or; Xor; Nor; Slt; Sltu; Mul ] in
         let* rd = rd and* rs = src defined and* rt = src defined in
         return (Alu3 (op, rd, rs, rt)));
        (3,
         let* op = oneofl [ Addi; Andi; Ori; Xori ] in
         let* rd = rd and* rs = src defined in
         let* imm = int_range 0 0xFFFF in
         return (Alui (op, rd, rs, imm)));
        (2,
         let* rd = rd and* rs = src defined in
         let* n = int_range 0 31 in
         let* op = oneofl [ Sll; Srl; Sra ] in
         return (Shifti (op, rd, rs, n)));
        (2,
         let* rd = rd and* rs = src defined in
         let* p = int_range 0 24 and* s = int_range 1 8 in
         return (Ext (rd, rs, p, s)));
        (1,
         (* Ins reads its destination: only redefine existing vregs, or a
            pinned input while there are none. *)
         let* rd = oneofl (if defined = [] then pinned else defined) in
         let* rs = src defined in
         let* p = int_range 0 24 and* s = int_range 1 8 in
         return (Ins (rd, rs, p, s)));
        (1, map (fun rd -> Lui (rd, 0x1234)) rd);
        (2,
         (* Loads give the scheduler something to hoist. *)
         let* rd = rd and* base = src defined in
         let* off = int_range 0 15 in
         return (Load (W32, rd, base, off * 4))) ]

  (* Scheduler inputs add loads, stores, branches and labels, so a body
     splits into several segments and loads have work to hoist over.
     Branch targets and label ids are placeholders: the scheduler never
     resolves them. *)
  let mem_item defined : Lblock.item t =
    let open Hinsn in
    let fresh = first_vreg + List.length defined in
    frequency
      [ (6, map (fun i -> Lblock.I i) (body_insn defined));
        (3,
         let* rd = oneofl (fresh :: defined) and* base = src defined in
         let* off = int_range 0 15 in
         return (Lblock.I (Load (W32, rd, base, off * 4))));
        (1,
         let* rv = src defined and* base = src defined in
         let* off = int_range 0 15 in
         return (Lblock.I (Store (W32, rv, base, off * 4))));
        (1, map (fun rs -> Lblock.I (Branch (Bne, rs, r0, 0))) (src defined));
        (1, return (Lblock.L 0)) ]

  let body_of item_gen =
    let* n = int_range 3 25 in
    let rec go k defined acc =
      if k = 0 then return (List.rev acc)
      else
        let* item = item_gen defined in
        let defined =
          match item with
          | Lblock.L _ -> defined
          | Lblock.I insn ->
            List.fold_left
              (fun d r ->
                if r >= Hinsn.first_vreg && not (List.mem r d) then r :: d else d)
              defined (Hinsn.defs insn)
        in
        go (k - 1) defined (item :: acc)
    in
    let* items = go n [] [] in
    let all_defined =
      List.concat_map (function Lblock.I i -> Hinsn.defs i | Lblock.L _ -> []) items
      |> List.filter (fun r -> r >= Hinsn.first_vreg)
      |> List.sort_uniq compare
    in
    let* outs = list_repeat 3 (pair (int_range 8 16) (src all_defined)) in
    let writes =
      List.map (fun (hw, s) -> Lblock.I (Hinsn.Alu3 (Add, hw, s, Hinsn.r0))) outs
    in
    return (Array.of_list (items @ writes))

  let body = body_of (fun defined -> map (fun i -> Lblock.I i) (body_insn defined))
  let mem_body = body_of mem_item
end

let print_body items =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (function
            | Lblock.I i -> Hinsn.to_string i
            | Lblock.L l -> Printf.sprintf "L%d:" l)
          items))

let arb_body = QCheck.make ~print:print_body G.body
let arb_mem_body = QCheck.make ~print:print_body G.mem_body

let live_out = List.init 9 (fun i -> 8 + i)

(* The passes, with the register bound taken from the body itself. *)
let opt items = Opt.run_all ~live_out ~nregs:(Lblock.reg_bound items) items
let sched items = Sched.hoist_loads ~nregs:(Lblock.reg_bound items) items
let alloc items = Regalloc.allocate ~nregs:(Lblock.reg_bound items) items

(* Run a body (after allocation + linearization) and return the pinned
   register file. *)
let run_body items =
  let code = Lblock.linearize (alloc items) in
  let regs = Array.make 32 0 in
  for i = 8 to 16 do
    regs.(i) <- (i * 0x01010101) land 0xFFFFFFFF
  done;
  regs.(Regalloc.scratch_base_reg) <- 0xFFF00000;
  (* Spill slots live apart from the data the body loads, so allocation
     differences between two bodies cannot alias their loads. *)
  let scratch = Array.make 1024 0 in
  let data = Array.init 1024 (fun i -> (i * 0x9E3779B1) land 0xFFFFFFFF) in
  let cell addr = if addr >= 0xFFF00000 then scratch else data in
  let mem : Hexec.mem_access =
    { load = (fun _ addr -> (cell addr).((addr lsr 2) land 1023));
      store = (fun _ addr v -> (cell addr).((addr lsr 2) land 1023) <- v) }
  in
  match Hexec.run_block ~code ~regs ~mem ~fuel:10_000 with
  | Hexec.Fell_through -> Array.sub regs 8 9
  | Hexec.Trap _ -> Alcotest.fail "unexpected trap"
  | Hexec.Out_of_steps -> Alcotest.fail "runaway block"

let prop_opt_preserves =
  QCheck.Test.make ~name:"optimizer preserves semantics" ~count:1000 arb_body
    (fun items ->
      run_body items = run_body (opt items))

let prop_sched_preserves =
  QCheck.Test.make ~name:"scheduler preserves semantics" ~count:1000 arb_body
    (fun items -> run_body items = run_body (sched items))

(* The scheduler against a pairwise reference: labels and barriers stay
   put, each segment between them comes out as a permutation of itself,
   and every two instructions of a segment that share a register (RAW,
   WAR or WAW; r0 carries no dependence) keep their order. *)
let is_barrier : Hinsn.t -> bool = function
  | Store _ | Branch _ | Jump _ | Trap _ | Mul64 _ | Div64 _ -> true
  | Load _ | Alu3 _ | Alui _ | Lui _ | Shifti _ | Shiftv _ | Ext _ | Ins _
  | Nop -> false

let depends a b =
  let shared x y = List.exists (fun r -> r <> Hinsn.r0 && List.mem r y) x in
  shared (Hinsn.defs a) (Hinsn.uses b)
  || shared (Hinsn.uses a) (Hinsn.defs b)
  || shared (Hinsn.defs a) (Hinsn.defs b)

let schedule_is_sound items =
  let out = sched items in
  let n = Array.length items in
  let fixed i = match items.(i) with Lblock.L _ -> true | I insn -> is_barrier insn in
  let insn_at a i = match a.(i) with Lblock.I insn -> insn | L _ -> raise Exit in
  (* Check the segment [s, e): map each output slot to the first unused
     input position holding the same instruction. *)
  let segment_ok s e =
    let pos = Array.make n (-1) in
    for q = s to e - 1 do
      let rec find k =
        if k >= e then raise Exit
        else if pos.(k) < 0 && insn_at items k = insn_at out q then pos.(k) <- q
        else find (k + 1)
      in
      find s
    done;
    let ok = ref true in
    for i = s to e - 1 do
      for j = i + 1 to e - 1 do
        if depends (insn_at items i) (insn_at items j) && pos.(i) > pos.(j) then
          ok := false
      done
    done;
    !ok
  in
  let rec check start i =
    if i > n then true
    else if i = n || fixed i then
      (i = n || out.(i) = items.(i)) && segment_ok start i && check (i + 1) (i + 1)
    else check start (i + 1)
  in
  try Array.length out = n && check 0 0 with Exit -> false

let prop_sched_sound =
  QCheck.Test.make ~name:"scheduler keeps segments and dependences" ~count:1000
    arb_body schedule_is_sound

let prop_sched_sound_mem =
  QCheck.Test.make
    ~name:"scheduler keeps segments and dependences (loads, barriers, labels)"
    ~count:1000 arb_mem_body schedule_is_sound

let prop_opt_then_sched_preserves =
  QCheck.Test.make ~name:"full pipeline preserves semantics" ~count:500
    arb_body
    (fun items ->
      run_body items
      = run_body (sched (opt items)))

let prop_alloc_removes_vregs =
  QCheck.Test.make ~name:"allocation leaves only hardware registers"
    ~count:500 arb_body
    (fun items ->
      Lblock.linearize (alloc items)
      |> Array.for_all (fun insn ->
             List.for_all
               (fun r -> r < Hinsn.first_vreg)
               (Hinsn.defs insn @ Hinsn.uses insn)))

let prop_opt_never_grows =
  QCheck.Test.make ~name:"optimizer never grows the body" ~count:500 arb_body
    (fun items ->
      List.length (Lblock.insns (opt items))
      <= List.length (Lblock.insns items))

(* --- Targeted optimizer behaviour ------------------------------------ *)

let test_constant_folding () =
  let items =
    [| Lblock.I (Hinsn.Alui (Ori, 32, 0, 10));
       Lblock.I (Hinsn.Alui (Ori, 33, 0, 20));
       Lblock.I (Hinsn.Alu3 (Add, 34, 32, 33));
       Lblock.I (Hinsn.Alu3 (Add, 8, 34, 0)) |]
  in
  let out = opt items in
  (* The adds fold to a constant; dead intermediate loads disappear. *)
  let n = List.length (Lblock.insns out) in
  if n > 2 then
    Alcotest.failf "expected <= 2 insns after folding, got %d:\n%s" n
      (String.concat "\n" (List.map Hinsn.to_string (Lblock.insns out)));
  Alcotest.(check (array int)) "value" (run_body items) (run_body out)

let test_dead_code_removed () =
  let items =
    [| Lblock.I (Hinsn.Alui (Ori, 32, 0, 1)); (* dead: never used *)
       Lblock.I (Hinsn.Alui (Ori, 8, 0, 2)) |]
  in
  let out = opt items in
  Alcotest.(check int) "dead def removed" 1 (List.length (Lblock.insns out))

let test_load_forwarding () =
  let items =
    [| Lblock.I (Hinsn.Load (W32, 32, 9, 4));
       Lblock.I (Hinsn.Load (W32, 33, 9, 4)); (* same address *)
       Lblock.I (Hinsn.Alu3 (Add, 8, 32, 33)) |]
  in
  let out = opt items in
  let loads =
    List.length
      (List.filter
         (function Hinsn.Load _ -> true | _ -> false)
         (Lblock.insns out))
  in
  Alcotest.(check int) "second load forwarded" 1 loads

let test_loads_never_deleted () =
  (* A dead load must survive (it can fault). *)
  let items = [| Lblock.I (Hinsn.Load (W32, 32, 9, 0)) |] in
  let out = opt items in
  Alcotest.(check int) "dead load kept" 1 (List.length (Lblock.insns out))

let test_linearize_rejects_backward () =
  let items =
    [| Lblock.L 0;
       Lblock.I Hinsn.Nop;
       Lblock.I (Hinsn.Jump 0) |]
  in
  match Lblock.linearize items with
  | _ -> Alcotest.fail "backward branch accepted"
  | exception Lblock.Malformed _ -> ()

let test_spill_pressure () =
  (* More simultaneously-live values than hardware temporaries: forces
     spilling, which must still compute the right answer. *)
  let n = 24 in
  let defs =
    List.init n (fun i -> Lblock.I (Hinsn.Alui (Ori, 32 + i, 0, i + 1)))
  in
  let sum =
    List.concat
      (List.init n (fun i ->
           [ Lblock.I
               (Hinsn.Alu3 (Add, 8, (if i = 0 then 0 else 8), 32 + i)) ]))
  in
  let items = Array.of_list (defs @ sum) in
  let out = run_body items in
  Alcotest.(check int) "sum via spills" (n * (n + 1) / 2) out.(0)

let suite =
  [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "dead code removed" `Quick test_dead_code_removed;
    Alcotest.test_case "redundant load forwarded" `Quick test_load_forwarding;
    Alcotest.test_case "dead loads survive" `Quick test_loads_never_deleted;
    Alcotest.test_case "linearize rejects backward branches" `Quick
      test_linearize_rejects_backward;
    Alcotest.test_case "register spilling" `Quick test_spill_pressure ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_opt_preserves; prop_sched_preserves; prop_sched_sound;
        prop_sched_sound_mem;
        prop_opt_then_sched_preserves; prop_alloc_removes_vregs;
        prop_opt_never_grows ]
