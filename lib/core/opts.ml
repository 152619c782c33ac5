(* BOLT options, mirroring the command line the paper uses:

     -reorder-blocks=cache+ -reorder-functions=hfsort+
     -split-functions=3 -split-all-cold -split-eh -icf=1
     -dyno-stats ...                                           *)

type reorder_blocks = Rb_none | Rb_cache | Rb_cache_plus | Rb_ext_tsp

type reorder_functions = Rf_none | Rf_hfsort | Rf_hfsort_plus | Rf_pettis_hansen

type split_functions = Split_none | Split_large | Split_all

type t = {
  reorder_blocks : reorder_blocks;
  reorder_functions : reorder_functions;
  split_functions : split_functions;
  split_all_cold : bool; (* move entirely-cold functions to the cold area *)
  split_eh : bool; (* move landing pads to the cold fragment *)
  icf : bool;
  icp : bool; (* indirect call promotion *)
  inline_small : bool;
  simplify_ro_loads : bool;
  plt : bool;
  peepholes : bool;
  strip_rep_ret : bool;
  strip_nops : bool; (* discard alignment NOPs on input (paper's policy) *)
  sctc : bool;
  frame_opts : bool;
  shrink_wrapping : bool;
  uce : bool;
  trust_fallthrough : bool;
      (* §5.2: attribute surplus flow to the fall-through path and trust
         the compiler's original layout under uncertainty *)
  stale_match : bool;
      (* recover a profile whose build-id doesn't match the input binary
         via fingerprint matching (Stale_match) instead of letting its
         records decay record-by-record *)
  use_relocations : bool option; (* None = auto: use them when present *)
  strict : bool;
      (* fail hard (Diag.Strict_error) instead of degrading: any verifier
         issue, profile-parse warning or function quarantine aborts *)
  max_quarantine : int option;
      (* abort (Diag.Quarantine_limit) when more functions than this are
         quarantined: a badly corrupted input is better rejected *)
  jobs : int;
      (* worker domains for per-function passes (obolt -j); output is
         byte-identical regardless of the value.  1 = fully sequential *)
}

let default =
  {
    reorder_blocks = Rb_ext_tsp;
    reorder_functions = Rf_hfsort_plus;
    split_functions = Split_all;
    split_all_cold = true;
    split_eh = true;
    icf = true;
    icp = true;
    inline_small = true;
    simplify_ro_loads = true;
    plt = true;
    peepholes = true;
    strip_rep_ret = true;
    strip_nops = true;
    sctc = true;
    frame_opts = true;
    shrink_wrapping = true;
    uce = true;
    trust_fallthrough = true;
    stale_match = true;
    use_relocations = None;
    strict = false;
    max_quarantine = None;
    jobs = 1;
  }

(* Everything off: the identity rewrite, useful for testing the pipeline. *)
let none =
  {
    default with
    reorder_blocks = Rb_none;
    reorder_functions = Rf_none;
    split_functions = Split_none;
    split_all_cold = false;
    split_eh = false;
    icf = false;
    icp = false;
    inline_small = false;
    simplify_ro_loads = false;
    plt = false;
    peepholes = false;
    strip_rep_ret = false;
    strip_nops = false;
    sctc = false;
    frame_opts = false;
    shrink_wrapping = false;
    uce = false;
  }
