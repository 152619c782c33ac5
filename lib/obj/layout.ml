(* Canonical address-space layout for linked executables.

   Mirrors a typical small x86-64 Linux layout: text low, read-only data
   after it, writable data above, stack high.  The BOLT rewriter appends
   rewritten text as a fresh segment at [bolt_text_base], like the real
   tool appends a new ELF segment when optimized code outgrows its slot. *)

let text_base = 0x40_0000
let rodata_base = 0x100_0000
let data_base = 0x200_0000
let bolt_text_base = 0x300_0000
let stack_top = 0x7f0_0000
let page_size = 4096

(* Default alignment the compiler requests for function entries. *)
let func_align = 16
