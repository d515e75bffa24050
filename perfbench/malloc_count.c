/*
 * LD_PRELOAD heap-allocation counter.
 *
 * Counts every malloc/calloc/realloc/memalign-family call of the
 * process (operator new reaches malloc) and, at exit, appends one line
 * "<program> <pid> <count>" to the file named by PERFBENCH_ALLOC_OUT.
 * When PERFBENCH_ALLOC_PROG is set, only a program of that name
 * reports, so a supervisor that inherits the preload stays silent.
 * The real allocator is glibc's, reached through its __libc_* entry
 * points, so no dlsym bootstrap is needed.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);

static unsigned long long gAllocs;

static void
bump(void)
{
    __atomic_fetch_add(&gAllocs, 1, __ATOMIC_RELAXED);
}

void *
malloc(size_t n)
{
    bump();
    return __libc_malloc(n);
}

void *
calloc(size_t n, size_t m)
{
    bump();
    return __libc_calloc(n, m);
}

void *
realloc(void *p, size_t n)
{
    bump();
    return __libc_realloc(p, n);
}

void *
memalign(size_t a, size_t n)
{
    bump();
    return __libc_memalign(a, n);
}

void *
aligned_alloc(size_t a, size_t n)
{
    bump();
    return __libc_memalign(a, n);
}

int
posix_memalign(void **out, size_t a, size_t n)
{
    bump();
    void *p = __libc_memalign(a, n);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

__attribute__((destructor)) static void
report(void)
{
    const char *path = getenv("PERFBENCH_ALLOC_OUT");
    const char *only = getenv("PERFBENCH_ALLOC_PROG");
    if (!path || (only && strcmp(only, program_invocation_short_name)))
        return;
    char line[256];
    int n = snprintf(line, sizeof(line), "%s %ld %llu\n",
                     program_invocation_short_name, (long)getpid(),
                     __atomic_load_n(&gAllocs, __ATOMIC_RELAXED));
    int fd = open(path, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return;
    if (n > 0 && write(fd, line, (size_t)n) < 0)
        n = 0;
    close(fd);
}
