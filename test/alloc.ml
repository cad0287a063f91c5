(* Allocation checks for hot paths. [Gc.minor_words] counts exactly on the
   native backend; bytecode boxes floats and builds closures where native
   code does not, so the checks are skipped there. *)

let native = Sys.backend_type = Sys.Native

(* Minor-heap words allocated per call of [f], over [n] calls after one
   warm-up call. The measurement itself costs a few words in all, far
   below one word per call. *)
let words_per_call ?(n = 1000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* A test case asserting that [f] allocates nothing per call. *)
let zero_alloc name f =
  Alcotest.test_case name `Quick (fun () ->
      if not native then Alcotest.skip ();
      Alcotest.(check int) "minor words per call" 0
        (int_of_float (words_per_call f)))
