(* Performance-engineering regression tests (PR 2): the speedups —
   translation memo, mask scoreboard, parallel experiment runner — must be
   invisible in modelled results. Every test here pins the determinism
   contract: identical inputs produce identical cycles, digests, output
   and stats, whatever the host-side execution strategy. *)

open Vat_desim
open Vat_guest
open Vat_core
open Vat_workloads

let fingerprint (r : Vm.result) =
  let outcome =
    match r.outcome with
    | Exec.Exited c -> Printf.sprintf "exit %d" c
    | Exec.Fault m -> "fault " ^ m
    | Exec.Out_of_fuel -> "fuel"
  in
  Printf.sprintf "%s cycles=%d insns=%d digest=%d output=%S" outcome r.cycles
    r.guest_insns r.digest r.output

let check_fp msg a b = Alcotest.(check string) msg a b

let run_bench ?memo name cfg =
  let b = Suite.find name in
  Vm.run ?memo ~fuel:50_000_000 cfg (Suite.load b)

(* Same workload twice in one process: nothing in the library may carry
   state from one run into the next (caches, RNGs, statistics). *)
let test_rerun_identical () =
  let a = run_bench "gzip" Config.default in
  let b = run_bench "gzip" Config.default in
  check_fp "second run identical" (fingerprint a) (fingerprint b);
  Alcotest.(check int) "exec.cycles stable"
    (Stats.get a.stats "total.cycles")
    (Stats.get b.stats "total.cycles")

(* The translation memo changes host-side work only: a cold run, a
   memo-sharing run, and a memo-hitting rerun all model the same machine. *)
let test_memo_invisible () =
  let cold = run_bench "parser" Config.default in
  let memo = Translate.Memo.create () in
  let warm1 = run_bench ~memo "parser" Config.default in
  let warm2 = run_bench ~memo "parser" Config.default in
  check_fp "memo miss run identical" (fingerprint cold) (fingerprint warm1);
  check_fp "memo hit run identical" (fingerprint cold) (fingerprint warm2);
  Alcotest.(check bool) "memo actually hit" true (Translate.Memo.hits memo > 0)

(* A memo hit is checked against the guest bytes the block was
   translated from, so one memo may serve different programs: a run that
   shares a memo with another program models the same machine as a run
   with a memo of its own. *)
let prop_memo_shared_across_programs =
  QCheck.Test.make ~name:"memo: shared across programs = private" ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let prog s =
        Randprog.generate_program (Rng.create ~seed:s) Randprog.default_params
      in
      let memo = Translate.Memo.create () in
      ignore (Vm.run ~memo Config.default (prog seed));
      let shared = Vm.run ~memo Config.default (prog (seed + 1)) in
      let own =
        Vm.run ~memo:(Translate.Memo.create ()) Config.default (prog (seed + 1))
      in
      fingerprint shared = fingerprint own)

(* One memo over the whole suite, in [Suite.all] order: every surrogate
   still exits with its reference interpreter's digest. *)
let test_memo_shared_suite () =
  let memo = Translate.Memo.create () in
  List.iter
    (fun (b : Suite.benchmark) ->
      let interp = Interp.create (Suite.load b) in
      ignore (Interp.run ~fuel:50_000_000 interp);
      let r = Vm.run ~memo ~fuel:50_000_000 Config.default (Suite.load b) in
      (match r.outcome with
       | Exec.Exited _ -> ()
       | _ -> Alcotest.failf "%s did not exit: %s" b.name (fingerprint r));
      Alcotest.(check int) (b.name ^ " digest") (Interp.digest interp) r.digest)
    Suite.all

(* Self-modifying code against the memo: a store to a byte the block was
   translated from makes the next lookup miss; a store elsewhere on the
   same page still hits, and the hit reports the page's current
   generation for the manager's install-time check. *)
let test_memo_smc () =
  let open Asm.Dsl in
  let prog =
    Program.of_asm
      [ label "start";
        mov (r eax) (i 1);
        add (r eax) (i 2);
        label "tail";
        jmp "start";
        label "data";
        Asm.Space 16 ]
  in
  let mem = prog.Program.mem in
  let memo = Translate.Memo.create () in
  let lookup () =
    Translate.translate_memo ~memo Config.default ~fetch:(Mem.read_u8 mem)
      ~page_gen:(fun ~page -> Mem.page_generation mem ~page)
      ~guest_addr:prog.Program.entry
  in
  let count () = (Translate.Memo.hits memo, Translate.Memo.misses memo) in
  let counts = Alcotest.(pair int int) in
  let _, gens0 = lookup () in
  Alcotest.check counts "first lookup misses" (0, 1) (count ());
  ignore (lookup ());
  Alcotest.check counts "repeat lookup hits" (1, 1) (count ());
  let data = Program.symbol prog "data" in
  Alcotest.(check int) "data shares the code page"
    (Mem.page_of prog.Program.entry) (Mem.page_of data);
  Mem.write_u8 mem data 0xAB;
  let _, gens1 = lookup () in
  Alcotest.check counts "store off the block still hits" (2, 1) (count ());
  Alcotest.(check bool) "hit reports current generations" true
    (gens1 <> gens0
     && List.for_all (fun (p, g) -> Mem.page_generation mem ~page:p = g) gens1);
  let tail = Program.symbol prog "tail" in
  Mem.write_u8 mem (tail - 1) (Mem.read_u8 mem (tail - 1) lxor 1);
  ignore (lookup ());
  Alcotest.check counts "store into the block misses" (2, 2) (count ())

(* A fetch fault depends on the image size, so the memo records it: a
   block cut short by the end of a small image is not reused where the
   same bytes go on. *)
let test_memo_fault_edge () =
  let at = 4094 in
  let insn = Encode.encode ~at (Insn.Mov (Reg EAX, Imm 7)) in
  let image size =
    let mem = Mem.create ~size in
    String.iteri
      (fun i c -> if at + i < size then Mem.write_u8 mem (at + i) (Char.code c))
      insn;
    mem
  in
  let memo = Translate.Memo.create () in
  let faults mem =
    let block, _ =
      Translate.translate_memo ~memo Config.default ~fetch:(Mem.read_u8 mem)
        ~page_gen:(fun ~page -> Mem.page_generation mem ~page)
        ~guest_addr:at
    in
    match block.Block.term with Block.T_fault _ -> true | _ -> false
  in
  Alcotest.(check bool) "small image: fetch fault" true (faults (image 4096));
  Alcotest.(check bool) "larger image: translated" false (faults (image 8192));
  Alcotest.(check int) "no reuse" 0 (Translate.Memo.hits memo)

(* A superblock follows a forward jump without reading the bytes it
   skips, so the memo records only the runs the translator fetched: a jump
   past the end of the image costs no copy of the gap, the block is the
   one [translate] gives, a store into the gap still hits, and a store
   into either run misses. *)
let test_memo_superblock_gap () =
  let cfg = { Config.default with superblocks = true } in
  let mem = Mem.create ~size:8192 in
  let mov = Encode.encode ~at:0 (Insn.Mov (Reg EAX, Imm 7)) in
  let place at target =
    let jmp =
      Encode.encode ~at:(at + String.length mov) (Insn.Jmp (Direct target))
    in
    String.iteri (fun i c -> Mem.write_u8 mem (at + i) (Char.code c)) (mov ^ jmp)
  in
  (* The immediate's high byte: flipping it keeps the [mov] valid. *)
  let imm_hi at = at + String.length mov - 1 in
  place 0 0x1000;
  place 0x1000 0x10000;
  let memo = Translate.Memo.create () in
  let lookup () =
    fst
      (Translate.translate_memo ~memo cfg ~fetch:(Mem.read_u8 mem)
         ~page_gen:(fun ~page -> Mem.page_generation mem ~page)
         ~guest_addr:0)
  in
  let count () = (Translate.Memo.hits memo, Translate.Memo.misses memo) in
  let counts = Alcotest.(pair int int) in
  let flip a = Mem.write_u8 mem a (Mem.read_u8 mem a lxor 1) in
  let block = lookup () in
  Alcotest.(check bool) "ends at the jump past the image" true
    (block.Block.term = Block.T_jmp { target = 0x10000 });
  Alcotest.(check bool) "same block as translate" true
    (block = Translate.translate cfg ~fetch:(Mem.read_u8 mem) ~guest_addr:0);
  Alcotest.check counts "first lookup misses" (0, 1) (count ());
  Alcotest.(check bool) "repeat lookup returns the block" true
    (lookup () = block);
  Alcotest.check counts "repeat lookup hits" (1, 1) (count ());
  flip 0x800;
  ignore (lookup ());
  Alcotest.check counts "store into the skipped gap hits" (2, 1) (count ());
  flip (imm_hi 0);
  ignore (lookup ());
  Alcotest.check counts "store into the first run misses" (2, 2) (count ());
  flip (imm_hi 0x1000);
  ignore (lookup ());
  Alcotest.check counts "store into the second run misses" (2, 3) (count ())

(* Parallel-vs-sequential golden equality over a full figure-4-style
   sweep: every cell's modelled result must be byte-identical whether the
   grid ran on one domain or several. *)
let test_parallel_golden () =
  let cells =
    List.concat_map
      (fun name ->
        List.map
          (fun banks ->
            (name, { Config.default with Config.n_l15_banks = banks }))
          [ 0; 1; 2 ])
      [ "gzip"; "parser" ]
  in
  let sweep jobs =
    (* One memo per benchmark, shared across configs and domains, exactly
       as bench/figures.ml does it. *)
    let memos = Hashtbl.create 4 in
    let memo_for name =
      match Hashtbl.find_opt memos name with
      | Some m -> m
      | None ->
        let m = Translate.Memo.create () in
        Hashtbl.add memos name m;
        m
    in
    let tasks =
      List.map
        (fun (name, cfg) ->
          let memo = memo_for name in
          fun () -> fingerprint (run_bench ~memo name cfg))
        cells
    in
    Pool.run ~jobs tasks
  in
  let seq = sweep 1 and par = sweep 4 in
  List.iteri
    (fun i (s, p) ->
      let name, _ = List.nth cells i in
      check_fp (Printf.sprintf "cell %d (%s)" i name) s p)
    (List.combine seq par)

(* A warm run (every translation a memo hit) of gzip allocates under 4
   minor words per guest instruction, machine set-up included: the engine,
   caches, event queue and tile services allocate nothing per step, and
   what is left is each message's event closure and request record. The
   simulator allocated about 52 before they were made allocation-free. *)
let test_warm_run_allocation () =
  if not Alloc.native then Alcotest.skip ();
  let memo = Translate.Memo.create () in
  ignore (run_bench ~memo "gzip" Config.default);
  let program = Suite.load (Suite.find "gzip") in
  let before = Gc.minor_words () in
  let r = Vm.run ~memo ~fuel:50_000_000 Config.default program in
  let words = (Gc.minor_words () -. before) /. float_of_int r.guest_insns in
  if words >= 4.0 then
    Alcotest.failf "warm gzip run: %.2f minor words per guest insn (ceiling 4)"
      words

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [ quick "rerun in one process is identical" test_rerun_identical;
    quick "translation memo is timing-invisible" test_memo_invisible;
    QCheck_alcotest.to_alcotest prop_memo_shared_across_programs;
    quick "one memo across the suite" test_memo_shared_suite;
    quick "memo: SMC misses, off-block store hits" test_memo_smc;
    quick "memo: fetch faults are part of the check" test_memo_fault_edge;
    quick "memo: superblock jump past the image" test_memo_superblock_gap;
    quick "parallel sweep equals sequential" test_parallel_golden;
    quick "warm run allocation ceiling" test_warm_run_allocation ]
