/* A hardware full memory fence for Repro_shim.Tatomic.Fence.

   OCaml 5.1's atomic primitives (caml_atomic_exchange and friends)
   take a plain load/store fast path while only one domain runs, so in
   a single-domain process they order nothing.  The shm transport's
   doorbell handshake is a StoreLoad protocol between two such
   processes and needs the real instruction. */

#include <stdatomic.h>
#include <caml/mlvalues.h>

value repro_full_fence(value unit)
{
  (void)unit;
  atomic_thread_fence(memory_order_seq_cst);
  return Val_unit;
}
