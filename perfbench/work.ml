(* The benchmark's workloads: their set-up (assembly, reference models,
   memo warm-up), the runs one timed pass makes, and the output checks
   every run must pass. Everything here calls the library's public entry
   points only; nothing inside the library is instrumented. *)

open Vat_desim
open Vat_guest
open Vat_core
open Vat_workloads

let fuel = 50_000_000
let checkpoint_every = 25_000
let fault_count = 8
let now = Unix.gettimeofday

type kind = Cold_suite | Warm_sweep | Recovery

let kinds =
  [ ("cold-suite", Cold_suite); ("warm-sweep", Warm_sweep);
    ("recovery", Recovery) ]

(* The figures' config-sweep pattern: both ends of the morphing pair,
   the threshold-15 morphing controller (reconfiguration flushes) and the
   conservative single translator (the demand-only Manager path). *)
let sweep_configs =
  [ ("4m6t", Config.default);
    ("1m9t", Config.trans_heavy Config.default);
    ( "morph15",
      { (Config.mem_heavy Config.default) with
        morph = Config.Morph { threshold = 15; dwell = 25_000 } } );
    ("cons-1", { Config.default with speculation = false; n_translators = 1 })
  ]

(* Recovery runs are ten times dearer than plain ones (a capture every
   25k cycles, plus replay from cycle 0 per rollback), so the workload
   keeps to two short programs, one fault plan each. The plan's seed is
   its own argument (--fault-seed, default 5), not the run-order seed:
   one plan's rollback count (0 to 3) moves a pass's cost by a quarter,
   and the workload must do the same work on every run-order seed. *)
let recovery_benchmarks = [ "gzip"; "vpr" ]

let fault_plan seed =
  Faultspec.plan ~recoverable_only:false Config.default ~seed ~count:fault_count

(* ------------------------------------------------------------------ *)
(* Operations and their checks                                         *)
(* ------------------------------------------------------------------ *)

(* Every simulation the benchmark makes is one operation attempted; one
   that fails any of its output checks is one operation failed. *)
let attempted = ref 0
let failed = ref 0

let operation what checks =
  incr attempted;
  match List.filter (fun (_, ok) -> not ok) checks with
  | [] -> ()
  | bad ->
    incr failed;
    List.iter (fun (name, _) -> Printf.eprintf "check failed: %s: %s\n%!" what name) bad

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type program = {
  bench : Suite.benchmark;
  image : Program.t;  (* pristine: Vm.run clones it per attempt *)
  piii_cycles : int;
  ref_digest : int;   (* Interp's digest of the finished guest *)
  memo : Translate.Memo.t;  (* warmed in set-up, except on cold-suite *)
  clean : Vm.result option;  (* the warm-up run, when there is one *)
}

type setup = {
  programs : program list;
  assemble_s : float;
  piii_s : float;
  piii_insns : int;
  interp_s : float;
  interp_insns : int;
  warmup_s : float;
}

let benchmarks = function
  | Cold_suite | Warm_sweep -> Suite.all
  | Recovery -> List.map Suite.find recovery_benchmarks

let exited = function Exec.Exited _ -> true | _ -> false

let check_run what (p : program) (r : Vm.result) extra =
  operation what
    ([ ("exits", exited r.Vm.outcome); ("digest = Interp", r.Vm.digest = p.ref_digest) ]
    @ extra)

let setup kind =
  let benches = benchmarks kind in
  let t0 = now () in
  let images = List.map Suite.load benches in
  let t1 = now () in
  (* The reference models run on clones: both store into the image. *)
  let piii = List.map (fun im -> Vat_refmodel.Piii.run (Program.clone im)) images in
  let t2 = now () in
  let interp =
    List.map
      (fun im ->
        let i = Interp.create (Program.clone im) in
        let o = Interp.run ~fuel i in
        (o, Interp.digest i, Interp.instret i))
      images
  in
  let t3 = now () in
  let programs =
    List.map2
      (fun (bench, image) ((pr : Vat_refmodel.Piii.result), (o, digest, _)) ->
        let name = bench.Suite.name in
        operation (name ^ " Piii") [ ("exits", match pr.outcome with Interp.Exited _ -> true | _ -> false) ];
        operation (name ^ " Interp") [ ("exits", match o with Interp.Exited _ -> true | _ -> false) ];
        { bench; image; piii_cycles = pr.cycles; ref_digest = digest;
          memo = Translate.Memo.create (); clean = None })
      (List.combine benches images) (List.combine piii interp)
  in
  let programs =
    match kind with
    | Cold_suite -> programs
    | Warm_sweep | Recovery ->
      List.map
        (fun p ->
          let r = Vm.run ~fuel ~memo:p.memo Config.default p.image in
          check_run (p.bench.Suite.name ^ " warm-up") p r [];
          { p with clean = Some r })
        programs
  in
  let t4 = now () in
  { programs;
    assemble_s = t1 -. t0;
    piii_s = t2 -. t1;
    piii_insns = List.fold_left (fun a (r : Vat_refmodel.Piii.result) -> a + r.instructions) 0 piii;
    interp_s = t3 -. t2;
    interp_insns = List.fold_left (fun a (_, _, n) -> a + n) 0 interp;
    warmup_s = t4 -. t3 }

let setup_seconds s = s.assemble_s +. s.piii_s +. s.interp_s +. s.warmup_s

(* ------------------------------------------------------------------ *)
(* Runs of one pass                                                    *)
(* ------------------------------------------------------------------ *)

type item = {
  key : string;            (* program/config/plan: canonical, seed-free order *)
  program : program;
  config : Config.t;
  faults : Fault.plan;
  fresh_memo : bool;       (* cold: a new memo per run *)
  checkpointed : bool;
}

let items kind programs ~fault_seed =
  let plain p (ckey, config) =
    { key = p.bench.Suite.name ^ "/" ^ ckey; program = p; config;
      faults = Fault.empty; fresh_memo = kind = Cold_suite; checkpointed = false }
  in
  match kind with
  | Cold_suite -> List.map (fun p -> plain p ("4m6t", Config.default)) programs
  | Warm_sweep ->
    List.concat_map (fun c -> List.map (fun p -> plain p c) programs) sweep_configs
  | Recovery ->
    List.map
      (fun p ->
        { (plain p ("4m6t", Config.default)) with
          key = Printf.sprintf "%s/plan%d" p.bench.Suite.name fault_seed;
          faults = fault_plan fault_seed;
          checkpointed = true })
      programs

type outcome = {
  result : Vm.result;
  seconds : float;
  memo_hits : int;
  memo_misses : int;
}

let run_item it =
  let memo = if it.fresh_memo then Translate.Memo.create () else it.program.memo in
  let h0 = Translate.Memo.hits memo and m0 = Translate.Memo.misses memo in
  let checkpoint_every = if it.checkpointed then Some checkpoint_every else None in
  let t0 = now () in
  let result =
    Vm.run ~fuel ~memo ~faults:it.faults ?checkpoint_every it.config
      it.program.image
  in
  let seconds = now () -. t0 in
  let extra =
    match it.program.clean with
    | Some c when it.checkpointed -> [ ("digest = fault-free", result.Vm.digest = c.Vm.digest) ]
    | _ -> []
  in
  check_run it.key it.program result extra;
  { result; seconds;
    memo_hits = Translate.Memo.hits memo - h0;
    memo_misses = Translate.Memo.misses memo - m0 }

type pass = {
  outcomes : outcome array;  (* indexed like the item list *)
  minor_words : float;
  guest_insns : int;
}

(* One pass over the items in an order drawn from [rng]: the surrogate
   programs are fixed, so the seed varies the order they run in. *)
let run_pass rng items =
  let items = Array.of_list items in
  let order = Array.init (Array.length items) Fun.id in
  Rng.shuffle rng order;
  Gc.compact ();
  let outcomes = Array.make (Array.length items) None in
  let w0 = Gc.minor_words () in
  Array.iter (fun i -> outcomes.(i) <- Some (run_item items.(i))) order;
  let minor_words = Gc.minor_words () -. w0 in
  let outcomes = Array.map Option.get outcomes in
  { outcomes; minor_words;
    guest_insns = Array.fold_left (fun a o -> a + o.result.Vm.guest_insns) 0 outcomes }

(* ------------------------------------------------------------------ *)
(* Deterministic model counters                                        *)
(* ------------------------------------------------------------------ *)

let sum_stat outcomes name =
  Array.fold_left (fun a o -> a + Stats.get o.result.Vm.stats name) 0 outcomes

(* A 48-bit prefix of an MD5: exact in a JSON double. *)
let hash48 s = int_of_string ("0x" ^ String.sub (Digest.to_hex (Digest.string s)) 0 12)

(* Order-independent: one line per run, keyed and sorted. *)
let stats_hash items outcomes =
  let lines =
    List.mapi
      (fun i it ->
        let r = outcomes.(i).result in
        String.concat ";"
          (it.key :: string_of_int r.Vm.cycles :: string_of_int r.Vm.digest
          :: List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) (Stats.to_alist r.Vm.stats)))
      items
  in
  hash48 (String.concat "\n" (List.sort compare lines))

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

(* The paper's figure of merit. On recovery it is taken over the
   fault-free warm-up runs: rollback cycles are not charged as the docs
   say yet, and this metric must not move when that is fixed. *)
let slowdown_geomean kind programs items outcomes =
  match kind with
  | Recovery ->
    geomean
      (List.map
         (fun p -> Vm.slowdown (Option.get p.clean) ~piii_cycles:p.piii_cycles)
         programs)
  | Cold_suite | Warm_sweep ->
    geomean
      (List.mapi
         (fun i it -> Vm.slowdown outcomes.(i).result ~piii_cycles:it.program.piii_cycles)
         items)

(* ------------------------------------------------------------------ *)
(* Statistics and reporting                                            *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type value = Int of int | Float of float

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
